"""``setup.py`` runs from a clean copy of what it reads.

It used to read a ``README.md`` the repository did not have, so
``pip install -e .`` and ``python setup.py --version`` raised
``FileNotFoundError``.  Nothing of the library is imported here.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_reports_its_version_from_a_temp_copy(tmp_path):
    for name in ("setup.py", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    (tmp_path / "src").mkdir()
    done = subprocess.run([sys.executable, "setup.py", "--version"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "1.0.0"
