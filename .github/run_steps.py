"""Run the steps of .github/workflows/ci.yml locally, one after another:
``python .github/run_steps.py``.

Each step but the install one runs as GitHub Actions runs it: from the
checkout, under ``bash --noprofile --norc -eo pipefail``, with
``GITHUB_WORKSPACE`` set to the checkout and a fresh ``GITHUB_STEP_SUMMARY``;
``TMPDIR`` is a directory removed after the step.  Prints each step's exit
status and summary, and exits 1 if a step failed.  Standard library only.
"""
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def steps(text):
    """(name, script) for each step with a name and a run field."""
    lines = text.splitlines()
    found = []
    for i, line in enumerate(lines):
        name = re.match(r"\s*- name: (.*)", line)
        run = i + 1 < len(lines) and re.match(r"(\s*)run: (.*)", lines[i + 1])
        if not (name and run):
            continue
        if run.group(2) != "|":
            found.append((name.group(1), run.group(2) + "\n"))
            continue
        body = []
        for raw in lines[i + 2:]:
            if raw.strip() and len(raw) - len(raw.lstrip()) <= len(run.group(1)):
                break
            body.append(raw)
        indent = min(len(r) - len(r.lstrip()) for r in body if r.strip())
        found.append((name.group(1), "\n".join(r[indent:] for r in body).rstrip() + "\n"))
    return found


def main():
    failed = []
    for name, script in steps(WORKFLOW.read_text()):
        if name.startswith("Install"):
            continue
        with tempfile.TemporaryDirectory() as tmp:
            summary, step = Path(tmp, "summary.md"), Path(tmp, "step.sh")
            summary.touch()
            step.write_text(script)
            env = dict(os.environ, GITHUB_WORKSPACE=str(ROOT), TMPDIR=tmp,
                       GITHUB_STEP_SUMMARY=str(summary))
            print(f"::: {name}", flush=True)
            code = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(step)],
                                  cwd=ROOT, env=env).returncode
            print(f"::: {name}: exit {code}")
            print(summary.read_text(), end="", flush=True)
        if code:
            failed.append(name)
    print(f"::: {len(failed)} failed" + "".join(f"\n  {n}" for n in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
