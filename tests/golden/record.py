"""Rewrite or check the golden CLI corpus, tests/golden/corpus.json.

Run it by hand from any directory, and rewrite the corpus only when a change
to the bytes the command line prints is intended:

    python tests/golden/record.py            # rewrite the corpus
    python tests/golden/record.py --check    # compare, write nothing

--check re-runs every case the same way, lists each case whose exit status,
stdout or stderr differs from the corpus (or that is missing from one side),
and exits 1 if any does, 0 if the corpus would be rewritten byte for byte.

Each case runs `python -m nefkit` in a fresh interpreter from the repository
root, with the sources under src/ first on the path, COLUMNS=80 (argparse
wraps --help text to the terminal width) and NEFKIT_DATA unset unless the
case sets it. The corpus stores argv, environment, exit status, stdout and
stderr; tests/test_golden.py replays every case in-process through
nefkit.cli.main, and every case with a non-zero exit status through record()
in a fresh interpreter, and compares them byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("corpus.json")
BAD_DATASET = "tests/golden/bad_pairing.json"

GROUPS = ["euler", "chern", "betti", "verdict", "cone", "scan", "table"]

SUBCOMMANDS = [
    ["euler", "ci", "--dim", "3", "--degrees", "2,2"],
    ["euler", "ci", "--dim", "7"],
    ["euler", "weighted", "--weights", "3,2,1,1,1,1", "--degree", "6"],
    # the largest bit bound euler weighted accepts, S = 14,000: 131 unit
    # weights at degree 2^106 - 1, whose chi has 4,149 digits
    ["euler", "weighted", "--weights", ",".join(["1"] * 131), "--degree", str(2**106 - 1)],
    ["chern", "ci", "--dim", "2", "--degrees", "3"],
    ["betti", "ci", "--dim", "3", "--degrees", "2,2"],
    ["verdict", "ci", "--dim", "4", "--degrees", "3"],
    ["verdict", "ci", "--dim", "5", "--degrees", "2,2"],
    ["verdict", "ci", "--dim", "1", "--degrees", "2,3"],
    ["verdict", "ci", "--dim", "2", "--degrees", "3"],
    ["verdict", "ci", "--dim", "3", "--degrees", "4"],
    # the exception steps: the K3 surface and even-dimensional (2,2), beside
    # the three-quadric fourfold that falls through them to the projection bound
    ["verdict", "ci", "--dim", "2", "--degrees", "2,2,2"],
    ["verdict", "ci", "--dim", "4", "--degrees", "2,2"],
    ["verdict", "ci", "--dim", "4", "--degrees", "2,2,2"],
    ["verdict", "delpezzo", "--dim", "4", "--degree", "5"],
    ["verdict", "delpezzo", "--dim", "3", "--degree", "6", "--variant", "P1xP1xP1"],
    ["verdict", "delpezzo", "--dim", "4", "--degree", "6", "--variant", "P2xP2"],
    ["verdict", "delpezzo", "--dim", "3", "--degree", "6", "--variant", "P(T_P2)"],
    ["verdict", "delpezzo", "--dim", "3", "--degree", "6"],
    # every del Pezzo verdict path: degrees 1-2 by parity, 3-4 through the
    # complete intersection chain, the fixed degree-5 and degree-7 verdicts
    *(["verdict", "delpezzo", "--dim", str(dim), "--degree", str(degree)]
      for dim, degree in ((3, 1), (4, 1), (3, 2), (4, 2), (3, 3), (4, 4), (5, 4),
                          (3, 5), (5, 5), (6, 5), (4, 6), (3, 7))),
    ["verdict", "curve", "--genus", "0"],
    ["verdict", "curve", "--genus", "1"],
    ["verdict", "curve", "--genus", "2"],
    # every codimension of both shipped datasets
    *(["cone", "dual", "--dataset", name, "--codim", str(codim)]
      for name, dimension in (("gw2c5", 5), ("g2c5", 6)) for codim in range(dimension + 1)),
    ["cone", "check", "--dataset", "gw2c5"],
    ["cone", "check", "--dataset", "g2c5"],
    # a negative pairing past 14,000 bits: the detail gives its sign and bit
    # length, the witness all 4,250 digits
    ["cone", "check", "--dataset", "tests/golden/huge_pairing.json"],
    # a dataset whose classes give no partition
    ["cone", "check", "--dataset", "tests/golden/no_partition.json"],
    ["cone", "dual", "--dataset", "tests/golden/no_partition.json", "--codim", "1"],
    # the same dataset saved as UTF-8 with a byte order mark
    ["cone", "check", "--dataset", "tests/golden/utf8_bom.json"],
    ["scan", "ci"],
    ["scan", "ci", "--max-dim", "6", "--max-degree", "4", "--max-r", "2",
     "--quadrics-max-r", "3"],
    ["table", "delpezzo"],
]

ERRORS = [
    # argparse usage errors: exit 2 with usage on stderr
    [],
    ["euler", "ci", "--degrees", "2"],
    ["euler", "ci", "--dim", "3", "--degrees", "2,x"],
    ["--format", "xml", "euler", "ci", "--dim", "3"],
    ["verdict"],
    # a group name only as an option value: the group's kinds are parsed
    # like any other, and the value is read as the option's
    ["verdict", "ci", "--dim", "3", "--degrees", "euler"],
    # invalid input: exit 2 with one "invalid input:" line
    ["euler", "ci", "--dim", "-1"],
    ["euler", "weighted", "--weights", "2,1,1,1,1", "--degree", "3"],
    # one bit past euler weighted's limit, at degree 2^106, checked before any work
    ["euler", "weighted", "--weights", ",".join(["1"] * 131), "--degree", str(2**106)],
    ["verdict", "delpezzo", "--dim", "2", "--degree", "5"],
    # a dimension out of range for each way a row is decided (closed form,
    # complete intersection, fixed steps by n), and degrees outside the
    # classification
    *(["verdict", "delpezzo", "--dim", str(dim), "--degree", str(degree)]
      for dim, degree in ((2, 1), (2, 3), (5, 6), (4, 7), (7, 5), (3, 8), (3, 0))),
    # a del Pezzo variant must label a degree-6 manifold of the given dimension
    ["verdict", "delpezzo", "--dim", "3", "--degree", "6", "--variant", "junk"],
    ["verdict", "delpezzo", "--dim", "3", "--degree", "6", "--variant", "P2xP2"],
    ["verdict", "delpezzo", "--dim", "4", "--degree", "5", "--variant", "P2xP2"],
    ["verdict", "delpezzo", "--dim", "3", "--degree", "7", "--variant", "P1xP1xP1"],
    ["betti", "ci", "--dim", "0"],
    ["cone", "dual", "--dataset", "gw2c5", "--codim", "9"],
    ["--format", "json", "euler", "ci", "--dim", "2300", "--degrees", "99"],
    # the formula route past its limit, checked before any work: in euler ci,
    # betti ci, and verdict ci and verdict delpezzo where the verdict reads chi
    ["euler", "ci", "--dim", "99999999999999999999", "--degrees", "2"],
    ["betti", "ci", "--dim", "99999999999999999999", "--degrees", "2"],
    ["--format", "json", "verdict", "ci", "--dim", "99999999999999999999", "--degrees", "3"],
    ["euler", "ci", "--dim", "60000", "--degrees", "2"],
    ["betti", "ci", "--dim", "8287", "--degrees", "3"],
    ["verdict", "ci", "--dim", "100000", "--degrees", "2,2,2"],
    ["verdict", "delpezzo", "--dim", "100000", "--degree", "3"],
    # limits checked before any work: a del Pezzo dimension past the one whose
    # closed-form chi can be printed, a scan past 1,000 ambient dimensions and
    # a scan past 2,000,000 cases
    ["verdict", "delpezzo", "--dim", "99999999999999999999", "--degree", "2"],
    ["verdict", "delpezzo", "--dim", "6153", "--degree", "1"],
    ["scan", "ci", "--max-dim", "3", "--max-degree", "3", "--max-r", "99999999999999999999"],
    ["scan", "ci", "--max-dim", "40", "--max-degree", "13", "--max-r", "7"],
    # chern ci past 400,000 series steps and past 14,000 bits for a Chern
    # degree; cone dual past 32 classes in a codimension and its complement,
    # and past pairings of 64 bits. large_cone.json pairs 13 classes of
    # codimension 1 with 27 of codimension 3 as t^i on the moment curve (t =
    # 1..27, i = 0..12), a nef cone of up to 69,768 rays, and two classes of
    # codimension 2 with a pairing of 2^64
    ["chern", "ci", "--dim", "1000", "--degrees", "5,7"],
    ["chern", "ci", "--dim", "100", "--degrees", "1" + "0" * 60],
    ["cone", "dual", "--dataset", "tests/golden/large_cone.json", "--codim", "1"],
    ["cone", "dual", "--dataset", "tests/golden/large_cone.json", "--codim", "2"],
    # dataset errors: exit 3
    ["cone", "check", "--dataset", "no-such-dataset"],
    # a group name as a dataset name
    ["cone", "check", "--dataset", "scan"],
    # a path that names no file is never looked up among the shipped datasets
    ["cone", "check", "--dataset", "./missing.json"],
    ["cone", "check", "--dataset", BAD_DATASET],
    ["--format", "json", "cone", "dual", "--dataset", BAD_DATASET, "--codim", "1"],
    # no complementary pair of classes, so no pairing can certify a nef diagonal
    ["cone", "check", "--dataset", "tests/golden/no_pairs.json"],
    # a partition given as a two-key object instead of a list
    ["cone", "check", "--dataset", "tests/golden/object_partition.json"],
    # a class without a partition and with a negative codim
    ["cone", "check", "--dataset", "tests/golden/negative_codim.json"],
    # documents the JSON parser cannot read: arrays nested 100,000 deep, past
    # the decoder's depth limit on every supported interpreter, and a
    # dimension one digit past the int-to-str limit
    ["cone", "check", "--dataset", "tests/golden/deep_nesting.json"],
    ["--format", "json", "cone", "dual", "--dataset", "tests/golden/long_dimension.json",
     "--codim", "1"],
    # a dataset file that is not UTF-8 (UTF-16 with its byte order mark)
    ["cone", "check", "--dataset", "tests/golden/utf16.json"],
    # a pairing entry that gives its value twice, which json.loads alone would
    # read as the last value, -1
    ["cone", "check", "--dataset", "tests/golden/repeated_key.json"],
]


def cases() -> list[tuple[list[str], dict[str, str]]]:
    out: list[tuple[list[str], dict[str, str]]] = [(["--help"], {})]
    out += [([group, "--help"], {}) for group in GROUPS]
    leaves = dict.fromkeys(tuple(argv[:2]) for argv in SUBCOMMANDS)
    out += [([*leaf, "--help"], {}) for leaf in leaves]
    for argv in SUBCOMMANDS:
        out.append((argv, {}))
        out.append((["--format", "json", *argv], {}))
    out += [(argv, {}) for argv in ERRORS]
    # a bare dataset name resolved through the NEFKIT_DATA directory
    out.append((["cone", "check", "--dataset", "bad_pairing"],
                {"NEFKIT_DATA": "tests/golden"}))
    return out


def record(argv: list[str], extra_env: dict[str, str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NEFKIT_DATA"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"
    env.update(extra_env)
    proc = subprocess.run([sys.executable, "-m", "nefkit", *argv], cwd=ROOT, env=env,
                          capture_output=True, check=False)
    return {
        "argv": argv,
        "env": extra_env,
        "exit": proc.returncode,
        "stdout": proc.stdout.decode("utf-8"),
        "stderr": proc.stderr.decode("utf-8"),
    }


def case_id(case: dict) -> str:
    env = " ".join(f"{k}={v}" for k, v in case["env"].items())
    return " ".join([env, *case["argv"]]).strip() or "(no arguments)"


def main(args: list[str]) -> int:
    if args not in ([], ["--check"]):
        print("usage: python tests/golden/record.py [--check]", file=sys.stderr)
        return 2
    corpus = [record(argv, env) for argv, env in cases()]
    text = json.dumps(corpus, indent=1) + "\n"
    if not args:
        CORPUS.write_text(text, "utf-8")
        print(f"wrote {len(corpus)} cases to {CORPUS.relative_to(ROOT)}")
        return 0
    stored_text = CORPUS.read_text("utf-8")
    stored = {case_id(case): case for case in json.loads(stored_text)}
    fresh = {case_id(case): case for case in corpus}
    differ = [name for name in {**fresh, **stored} if fresh.get(name) != stored.get(name)]
    if not differ and text != stored_text:
        differ = ["(case order or layout)"]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(corpus)} cases differ from {CORPUS.relative_to(ROOT)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
