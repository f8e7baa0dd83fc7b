"""Rewrite or check the golden CLI corpus, tests/golden/corpus.json.

Run it by hand from any directory, and rewrite the corpus only when a change
to the bytes the command line prints is intended:

    python tests/golden/record.py            # rewrite the corpus
    python tests/golden/record.py --check    # compare, write nothing

--check re-runs every case the same way, lists each case whose exit status,
stdout or stderr differs from the corpus (or that is missing from one side),
or whose run took longer than its max_s, and exits 1 if any does, 0 if the
corpus would be rewritten byte for byte. Both modes exit 1 before running
anything if two cases share an id.

Each case runs `python -m nefkit` in a fresh interpreter from the repository
root, with the sources under src/ first on the path, COLUMNS=80 (argparse
wraps --help text to the terminal width) and NEFKIT_DATA unset unless the
case sets it. The corpus stores argv, environment, exit status, stdout and
stderr; an output of more than 64 KiB is stored as its sha256 and byte
count. tests/test_golden.py replays every case in-process through
nefkit.cli.main, and every case with a non-zero exit status through record()
in a fresh interpreter, and compares them byte for byte.

EDGES is the one table of limit edges: for each limit, one step inside it,
where one is checked, and one step past it, with an optional max_s, the
most seconds its fresh-process run may take. tests/test_cli.py replays each
of its refusals with the work functions stubbed out, and tests/test_golden.py
checks that every library _check_* limit refuses at least one of them. The
datasets too large to commit come from GENERATORS, which write them into the
git-ignored tests/golden/generated/ before any case runs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("corpus.json")
GENERATED = Path(__file__).with_name("generated")
BAD_DATASET = "tests/golden/bad_pairing.json"
PIN_BYTES = 64 * 1024

GROUPS = ["euler", "chern", "betti", "verdict", "cone", "scan", "table"]

SUBCOMMANDS = [
    ["euler", "ci", "--dim", "3", "--degrees", "2,2"],
    ["euler", "ci", "--dim", "7"],
    ["euler", "weighted", "--weights", "3,2,1,1,1,1", "--degree", "6"],
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
    # a document the JSON parser cannot read: arrays nested 100,000 deep, past
    # the decoder's depth limit on every supported interpreter
    ["cone", "check", "--dataset", "tests/golden/deep_nesting.json"],
    # a dataset file that is not UTF-8 (UTF-16 with its byte order mark)
    ["cone", "check", "--dataset", "tests/golden/utf16.json"],
    # a pairing entry that gives its value twice, which json.loads alone would
    # read as the last value, -1
    ["cone", "check", "--dataset", "tests/golden/repeated_key.json"],
]


def edge(*argv: str, max_s: float | None = None,
         **env: str) -> tuple[list[str], dict[str, str], float | None]:
    """A case: its argv, the environment variables it sets and its max_s."""
    return list(argv), env, max_s


NINES = "9" * 20
# 131 unit weights, and 20 degrees of 84 bits
ONES = ",".join(["1"] * 131)
BITS_84 = ",".join([str(2**84 - 1)] * 20)

EDGES = [
    # the entry point: argparse's fallbacks (--dim=7 and the prefix --di
    # print what --dim 7 prints) and its own usage error, and a small scan
    edge("--format", "json", "euler", "ci", "--dim=7"),
    edge("--format", "json", "euler", "ci", "--di", "7"),
    edge("--format", "json", "euler", "ci", "--dim", "x"),
    edge("--format", "json", "scan", "ci", "--max-dim", "4", "--max-degree", "3", "--max-r", "2",
         "--quadrics-max-r", "3"),
    # chern._check_formula_size, in euler ci, betti ci, and verdict ci and
    # verdict delpezzo where the verdict reads chi. The printable bound:
    # degree 7 up to n = 5,515, whose chi has 4,293 digits, and results past
    # the int-to-str limit of 4,300 digits, or of 640
    edge("euler", "ci", "--dim", "5515", "--degrees", "7"),
    edge("--format", "json", "euler", "ci", "--dim", "5515", "--degrees", "7"),
    edge("euler", "ci", "--dim", "5516", "--degrees", "7"),
    edge("euler", "ci", "--dim", "7254", "--degrees", "7", max_s=10),
    edge("--format", "json", "euler", "ci", "--dim", "2300", "--degrees", "99"),
    edge("verdict", "delpezzo", "--dim", "2200", "--degree", "3", max_s=10,
         PYTHONINTMAXSTRDIGITS="640"),
    # the work bound, n (r + 1) B^1.5 at most 10^11
    edge("euler", "ci", "--dim", NINES, "--degrees", "2"),
    edge("betti", "ci", "--dim", NINES, "--degrees", "2"),
    edge("--format", "json", "verdict", "ci", "--dim", NINES, "--degrees", "3"),
    edge("euler", "ci", "--dim", "60000", "--degrees", "2"),
    edge("euler", "ci", "--dim", "200000", "--degrees", "2", max_s=10),
    edge("betti", "ci", "--dim", "8287", "--degrees", "3"),
    edge("verdict", "ci", "--dim", "20000", "--degrees", "5,7"),
    edge("verdict", "ci", "--dim", "100000", "--degrees", "2,2,2", max_s=10),
    edge("verdict", "delpezzo", "--dim", "100000", "--degree", "3"),
    # chern._check_weighted_size: S = 14,000 at degree 2^106 - 1, whose chi
    # has 4,149 digits, one bit past it at 2^106, and 21,000 weights of
    # 99999, which worked 2.3 s before an unprintable result
    edge("euler", "weighted", "--weights", ONES, "--degree", str(2**106 - 1)),
    edge("--format", "json", "euler", "weighted", "--weights", ONES, "--degree", str(2**106 - 1)),
    edge("euler", "weighted", "--weights", ONES, "--degree", str(2**106)),
    edge("euler", "weighted", "--weights", ",".join(["99999"] * 21000), "--degree", "99998",
         max_s=10),
    # chern._check_chern_size: at most 200,660 series steps, the count of
    # the slowest accepted command, and at most 14,000 bits for a Chern
    # degree, or 2,126 under the lowest int-to-str setting, 640
    edge("--format", "json", "chern", "ci", "--dim", "632", "--degrees", "1048575", max_s=10),
    edge("chern", "ci", "--dim", "633"),
    edge("chern", "ci", "--dim", "1000", "--degrees", "5,7"),
    edge("chern", "ci", "--dim", NINES),
    edge("chern", "ci", "--dim", NINES, "--degrees", "5,7", max_s=10),
    edge("--format", "json", "chern", "ci", "--dim", "141", "--degrees", BITS_84, max_s=10),
    edge("--format", "json", "chern", "ci", "--dim", "142", "--degrees", BITS_84, max_s=10),
    edge("chern", "ci", "--dim", "143", "--degrees", BITS_84, max_s=10),
    edge("chern", "ci", "--dim", "450", "--degrees", "536870911,536870911"),
    edge("chern", "ci", "--dim", "100", "--degrees", "1" + "0" * 60),
    edge("chern", "ci", "--dim", "28", "--degrees", str(2**71 - 1), PYTHONINTMAXSTRDIGITS="640"),
    edge("chern", "ci", "--dim", "28", "--degrees", str(2**72 - 1), PYTHONINTMAXSTRDIGITS="640"),
    edge("chern", "ci", "--dim", "200", "--degrees", "536870911", max_s=10,
         PYTHONINTMAXSTRDIGITS="640"),
    # diagonal._check_delpezzo_size: rows 1 and 2 up to the dimension whose
    # closed-form chi prints, 6,152 and 9,012 under the default limit; with
    # the limit off, or set past it, the 1,000,000-digit work bound takes its
    # place, 1,430,677 and 2,095,903, and a threefold still answers
    edge("verdict", "delpezzo", "--dim", "6152", "--degree", "1"),
    edge("verdict", "delpezzo", "--dim", "6153", "--degree", "1"),
    edge("verdict", "delpezzo", "--dim", NINES, "--degree", "1"),
    edge("verdict", "delpezzo", "--dim", "9012", "--degree", "2"),
    edge("verdict", "delpezzo", "--dim", "9013", "--degree", "2"),
    edge("verdict", "delpezzo", "--dim", NINES, "--degree", "2", max_s=10),
    edge("verdict", "delpezzo", "--dim", "1430678", "--degree", "1", max_s=3,
         PYTHONINTMAXSTRDIGITS="0"),
    edge("verdict", "delpezzo", "--dim", "2095904", "--degree", "2", max_s=3,
         PYTHONINTMAXSTRDIGITS="0"),
    edge("verdict", "delpezzo", "--dim", NINES, "--degree", "2", max_s=3,
         PYTHONINTMAXSTRDIGITS="0"),
    edge("--format", "json", "verdict", "delpezzo", "--dim", "3", "--degree", "2", max_s=10,
         PYTHONINTMAXSTRDIGITS="5000000"),
    # diagonal._check_curve_size: chi and the genus must print
    edge("verdict", "curve", "--genus", "9" * 4300, max_s=10),
    # diagonal._check_scan_size: at most 1,000 ambient dimensions and at most
    # 2,000,000 cases; the tuple count passes the limit at its first step,
    # where counting on through all 999 steps of 4,000-digit products would
    # take tens of seconds
    edge("scan", "ci", "--max-dim", "999", "--max-degree", "2", "--max-r", "1",
         "--quadrics-max-r", "1"),
    edge("scan", "ci", "--max-dim", "1000", "--max-degree", "2", "--max-r", "1",
         "--quadrics-max-r", "1"),
    edge("scan", "ci", "--max-dim", "3", "--max-degree", "3", "--max-r", NINES, max_s=10),
    edge("scan", "ci", "--max-dim", "40", "--max-degree", "13", "--max-r", "7"),
    edge("scan", "ci", "--max-dim", "1", "--max-degree", "9" * 4000, "--max-r", "999"),
    # cones._check_cone_size: at most 32 classes in a codimension and its
    # complement, and pairings of at most 64 bits. large_cone.json pairs 13
    # classes of codimension 1 with 27 of codimension 3 as t^i on the moment
    # curve (t = 1..27, i = 0..12), a nef cone of up to 69,768 rays, and two
    # classes of codimension 2 with a pairing of 2^64
    edge("cone", "dual", "--dataset", "tests/golden/large_cone.json", "--codim", "1", max_s=10),
    edge("cone", "dual", "--dataset", "tests/golden/large_cone.json", "--codim", "2"),
    edge("cone", "dual", "--dataset", "tests/golden/huge_pairing.json", "--codim", "1"),
    # the dataset reader, exit 3: a dimension one digit past the int-to-str
    # limit, and with the limit off a 1,000,000-digit one, refused at once;
    # 16,000,000 class pairs, the first unpaired; a file one byte past the
    # 4,000,000-byte cap
    edge("--format", "json", "cone", "dual", "--dataset", "tests/golden/long_dimension.json",
         "--codim", "1"),
    edge("cone", "check", "--dataset", "tests/golden/generated/long.json", max_s=3,
         PYTHONINTMAXSTRDIGITS="0"),
    edge("cone", "check", "--dataset", "tests/golden/generated/wide.json", max_s=10),
    edge("cone", "check", "--dataset", "tests/golden/generated/oversized.json", max_s=10),
]


def wide_dataset() -> bytes:
    """4,000 classes of codimension 1 and 4,000 of codimension 2 in
    dimension 3, with one pairing."""
    classes = [{"label": f"{side}{i}", "codim": codim}
               for side, codim in (("a", 1), ("b", 2)) for i in range(4000)]
    return json.dumps({"variety": "wide", "dimension": 3, "classes": classes,
                       "pairings": [{"a": "a1", "b": "b1", "value": 1}]}).encode()


def long_dataset() -> bytes:
    """gw2c5 with a 1,000,000-digit dimension, gw2c5 read from the package the
    cases run: src/ first, else the installed one."""
    package = ROOT / "src" / "nefkit"
    if not package.is_dir():
        package = Path(importlib.util.find_spec("nefkit").origin).parent
    doc = json.loads((package / "data" / "gw2c5.json").read_text("utf-8"))
    doc["dimension"] = "DIMENSION"
    return json.dumps(doc).replace('"DIMENSION"', "9" * 1_000_000).encode()


def oversized_dataset() -> bytes:
    """One byte past cones._DATASET_MAX_BYTES."""
    return b" " * 4_000_001


GENERATORS = {"wide.json": wide_dataset, "long.json": long_dataset,
              "oversized.json": oversized_dataset}


def generate(directory: Path = GENERATED) -> None:
    directory.mkdir(exist_ok=True)
    for name, make in GENERATORS.items():
        (directory / name).write_bytes(make())


def cases() -> list[tuple[list[str], dict[str, str], float | None]]:
    out = [edge("--help")]
    out += [edge(group, "--help") for group in GROUPS]
    leaves = dict.fromkeys(tuple(argv[:2]) for argv in SUBCOMMANDS)
    out += [edge(*leaf, "--help") for leaf in leaves]
    for argv in SUBCOMMANDS:
        out.append(edge(*argv))
        out.append(edge("--format", "json", *argv))
    out += [edge(*argv) for argv in ERRORS]
    # a bare dataset name resolved through the NEFKIT_DATA directory
    out.append(edge("cone", "check", "--dataset", "bad_pairing", NEFKIT_DATA="tests/golden"))
    return out + EDGES


def pin(text: str) -> str | dict:
    """text, or its sha256 and byte count if it has more than PIN_BYTES."""
    data = text.encode("utf-8")
    if len(data) <= PIN_BYTES:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def record(argv: list[str], extra_env: dict[str, str], max_s: float | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NEFKIT_DATA"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"
    env.update(extra_env)
    proc = subprocess.run([sys.executable, "-m", "nefkit", *argv], cwd=ROOT, env=env,
                          capture_output=True, check=False)
    case = {
        "argv": argv,
        "env": extra_env,
        "exit": proc.returncode,
        "stdout": pin(proc.stdout.decode("utf-8")),
        "stderr": pin(proc.stderr.decode("utf-8")),
    }
    if max_s is not None:
        case["max_s"] = max_s
    return case


def _token(token: str) -> str:
    if len(token) <= 80:
        return token
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()[:8]
    return f"{token[:12]}...({len(token)} chars, {digest})"


def case_id(case: dict) -> str:
    """The case's env and argv, each token over 80 characters shortened to
    its first 12, its length and 8 hex digits of its sha256."""
    env = " ".join(f"{k}={_token(v)}" for k, v in case["env"].items())
    return " ".join([env, *map(_token, case["argv"])]).strip() or "(no arguments)"


def main(args: list[str]) -> int:
    if args not in ([], ["--check"]):
        print("usage: python tests/golden/record.py [--check]", file=sys.stderr)
        return 2
    specs = cases()
    counts = Counter(case_id({"argv": argv, "env": env}) for argv, env, _ in specs)
    repeated = [name for name, count in counts.items() if count > 1]
    for name in repeated:
        print(f"repeated id: {name}")
    if repeated:
        return 1
    generate()
    runs = []
    for spec in specs:
        start = time.perf_counter()
        runs.append((record(*spec), time.perf_counter() - start))
    corpus = [case for case, _ in runs]
    late = [f"{case_id(case)} (took {seconds:.2f} s, max_s {case['max_s']})"
            for case, seconds in runs if seconds > case.get("max_s", float("inf"))]
    text = json.dumps(corpus, indent=1) + "\n"
    shown = os.path.relpath(CORPUS, ROOT)
    if not args:
        CORPUS.write_text(text, "utf-8")
        print(f"wrote {len(corpus)} cases to {shown}")
        for name in late:
            print(f"late: {name}")
        return 1 if late else 0
    stored_text = CORPUS.read_text("utf-8")
    stored = {case_id(case): case for case in json.loads(stored_text)}
    fresh = {case_id(case): case for case in corpus}
    differ = [name for name in {**fresh, **stored} if fresh.get(name) != stored.get(name)]
    if not differ and text != stored_text:
        differ = ["(case order or layout)"]
    differ += late
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(corpus)} cases differ from {shown}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
