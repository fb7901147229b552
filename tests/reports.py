"""The pinned reports of the command line: the manifest reports.json.

Each entry holds a command's argv, its exit status, and the sha256 of its stdout, of
its stderr and of its `verify --json` report (null for other commands, and where verify
wrote none).  `PYTHONPATH=src python tests/reports.py` reruns every entry's argv and
rewrites the manifest, so a change that moves report bytes shows as a diff of
reports.json; `test_cli.py` checks every entry against a fresh run.  `family_of` reads
a check id's CHECKS family, for `test_cli.py` and `test_acceptance.py`.
"""

import hashlib
import io
import json
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from steinberg_lab import cli, suites

MANIFEST = pathlib.Path(__file__).with_name("reports.json")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(argv):
    """The manifest entry of one command, run through cli.main in this process; verify
    writes its --json report to a temporary file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp, "report.json")
        json_option = ["--json", str(report)] if argv[0] == "verify" else []
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main([*argv, *json_option])
            except SystemExit as exc:  # main always exits
                status = exc.code
        digest = _sha256(report.read_bytes()) if report.exists() else None
    return {"argv": list(argv), "status": status, "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()), "json": digest}


def load():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def family_of(check_id):
    """The CHECKS family of a check id: the longest family that is the id, or the id's
    stem before "-" and a tag; None when no family is."""
    stems = [f for f in suites.CHECKS if check_id == f or check_id.startswith(f + "-")]
    return max(stems, key=len, default=None)


if __name__ == "__main__":
    # one entry a line, so a moved byte shows as one changed line that names its command
    entries = [json.dumps(run(entry["argv"])) for entry in load()]
    MANIFEST.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
