import re
import subprocess
import sys
from pathlib import Path

from conftest import cli_env

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(tmp_path):
    # The README's one python block, run as a reader would paste it.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, timeout=300,
        cwd=tmp_path, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0] == "True"
    assert "'bsbm_lhs'" in lines[1]
