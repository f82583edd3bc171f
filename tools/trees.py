"""What the tools that compare a git revision of this repo with a checkout
share: the export of the revision, and the thread pins of every run."""

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def export(rev, dest):
    """Write the committed files of git revision `rev` into directory
    `dest` with `git archive`; return the revision's full sha."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    tarfile.open(fileobj=io.BytesIO(archive)).extractall(dest, filter="data")
    return sha
