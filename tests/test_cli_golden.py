"""Golden CLI bytes: every verb over every fixture, compared byte for byte
(exit code, stdout, stderr and any --report/--out file) with a checked-in
record, ``tests/golden/cli.json``.  A refactor leaves the record unchanged; a
deliberate output change regenerates it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from abpkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"


def _per_fixture_cases(name: str, num_vars: int) -> list:
    f = f"<fixtures>/{name}"
    point = ",".join(str(i + 2) for i in range(num_vars))
    return [
        ["validate", f],
        ["eval", f, "--point", point],
        ["expand", f],
        ["expand", f, "--guard", "2"],
        ["pit", f],
        ["pit", f, "--seed", "3", "--report", "<out>/report.csv"],
        ["pit", f, "--generator", "external",
         "--points-file", "<fixtures>/points_two_vars.txt"],
        ["pit", f, "--generator", "external",
         "--points-file", "<fixtures>/points_demo.txt"],
        ["evaldim", f, "--prefix", "2"],
        ["evaldim", f, "--S", "1,2", "--T", "3,4", "--R", "5,6"],
        ["synth-roabp", f, "--out", "<out>/synth.json"],
        ["collapse", f, "--mode", "k-pass", "--out", "<out>/collapsed.json"],
        ["collapse", f, "--mode", "k-gap", "--out", "<out>/collapsed.json"],
        ["sequence", f, "--action", "show"],
        ["sequence", f, "--action", "check"],
        ["sequence", f, "--action", "prune"],
        ["experiment", "blocks", "--file", f, "--blocks", "4",
         "--report", "<out>/blocks.csv"],
    ]


GLOBAL_CASES = [
    ["validate", "<fixtures>/nope.json"],
    ["validate", "<fixtures>/points_demo.txt"],
    ["gen", "pn", "--n", "2", "--out", "<out>/pn2.json"],
    ["gen", "qn", "--n", "2", "--out", "<out>/qn2.json", "--with-poly"],
    ["experiment", "iteration-bound", "--p-grid", "0.25,0.5", "--r-max", "3",
     "--n-max", "50", "--report", "<out>/bound.csv"],
    ["experiment", "pn-evaldim", "--n", "2", "--max-size", "1",
     "--report", "<out>/pn.csv"],
    ["experiment", "qn-evaldim", "--n", "3", "--pairs", "5",
     "--field-prime", "10007", "--report", "<out>/qn.csv"],
    ["experiment", "qn-evaldim", "--n", "3", "--pairs", "6", "--seed", "4",
     "--field-prime", "10007", "--report", "<out>/qn.csv"],
    ["experiment", "eliminate", "--n", "4", "--width", "2", "--t", "1",
     "--seed", "2"],
]


def all_cases() -> list:
    cases = []
    for path in sorted(FIXTURES.glob("*.json")):
        num_vars = json.loads(path.read_text())["num_vars"]
        cases.extend(_per_fixture_cases(path.name, num_vars))
    return cases + GLOBAL_CASES


def run_case(case: list) -> dict:
    """Run one CLI invocation in a fresh output directory; paths in the
    captured text are put back to their placeholders."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp)
        argv = [a.replace("<fixtures>", str(FIXTURES)).replace("<out>", tmp)
                for a in case]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)

        def scrub(text: str) -> str:
            return text.replace(tmp, "<out>").replace(str(FIXTURES), "<fixtures>")

        files = {p.name: p.read_bytes().decode("utf-8")
                 for p in sorted(out_dir.iterdir())}
        return {"argv": case, "exit": code, "stdout": scrub(stdout.getvalue()),
                "stderr": scrub(stderr.getvalue()), "files": files}


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = all_cases()
    assert [g["argv"] for g in golden] == cases
    for want in golden:
        assert run_case(want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run_case(case) for case in all_cases()]
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
