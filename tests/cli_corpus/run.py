"""Run the CLI contract corpus of ``cases.py`` and print ``expected.txt``.

    python tests/cli_corpus/run.py                       # in process, through crrpricing.cli.main
    python tests/cli_corpus/run.py crrpricing            # the installed script, a process per command
    python tests/cli_corpus/run.py python -m crrpricing | diff tests/cli_corpus/expected.txt -

Each case runs in a fresh directory, every path relative. Per command it
prints the argv, the exit code, stdout and stderr after ``|``, and the length
and SHA-256 of each file written. The terminal is pinned at 200 columns,
where no usage line wraps: at 80, Python 3.13 wraps ``verify``'s usage text
at another word than 3.10-3.12.
"""
import contextlib
import hashlib
import io
import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
TABLE = runpy.run_path(str(HERE / "cases.py"))
CASES, GENERATED = TABLE["CASES"], TABLE["GENERATED"]
INPUTS = {path.name: path for path in (HERE / "inputs").iterdir()}
COLUMNS = "200"


def in_process(argv):
    from crrpricing.cli import main  # here: a run through a command needs no package on the path

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()


def through(command):
    """Run each argv as ``command + argv`` in a child process, with a timeout."""
    paths = filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))  # made absolute before any chdir
    env = dict(os.environ, COLUMNS=COLUMNS, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(map(os.path.abspath, paths)))

    def run(argv):
        try:
            proc = subprocess.run([*command, *argv], capture_output=True, env=env, timeout=120)
        except subprocess.TimeoutExpired:
            return "timeout after 120 s", "", ""
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    return run


def _files():
    return {path.as_posix(): path.read_bytes() for path in Path(".").rglob("*") if path.is_file()}


def _stream(name, text):
    lines = text.split("\n")
    tail = lines.pop()  # "" after a final newline
    return [f"{name}:", *(f"| {line}" for line in lines)] + ([f"| {tail}", "\\ no newline at end"] if tail else [])


def _shown(arg):
    return shlex.quote(arg) if len(arg) <= 200 else f"{shlex.quote(arg[:60])}…({len(arg)} characters)"


def run_case(case, run):
    """The ``expected.txt`` block of one case, its commands run by ``run``."""
    name, argvs, note = case
    lines = [f"=== {name}"] + [f"# {note}"] * bool(note)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS=COLUMNS):
        for arg in {arg for argv in argvs for arg in argv}:
            if arg in GENERATED:
                Path(tmp, arg).write_text(GENERATED[arg], encoding="utf-8")
            elif arg in INPUTS:
                shutil.copyfile(INPUTS[arg], Path(tmp, arg))
        os.chdir(tmp)
        try:
            for argv in argvs:
                before = _files()
                code, out, err = run(argv)
                lines += [f"$ crrpricing {' '.join(map(_shown, argv))}", f"exit {code}"]
                lines += _stream("stdout", out) + _stream("stderr", err)
                lines += [f"wrote {path}: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}"
                          for path, data in sorted(_files().items()) if before.get(path) != data]
        finally:
            os.chdir(cwd)
    return "\n".join(lines) + "\n"


def expected_blocks():
    """``expected.txt`` split into its blocks, by case name."""
    with open(HERE / "expected.txt", encoding="utf-8", newline="") as f:
        text = f.read()
    return {block.split("\n", 1)[0][4:]: block for block in re.split(r"(?m)^(?==== )", text) if block}


if __name__ == "__main__":
    run = through(sys.argv[1:]) if sys.argv[1:] else in_process
    sys.stdout.reconfigure(encoding="utf-8", newline="\n")
    for case in CASES:
        sys.stdout.write(run_case(case, run))
