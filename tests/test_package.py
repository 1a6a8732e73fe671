import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import qwsed

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# declared under [test] only; the runtime needs numpy alone
TEST_ONLY = ("scipy", "sympy", "networkx", "mpmath", "hypothesis")


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0].split()[0] == "tightly-sedentary"
    assert abs(float(lines[0].split()[1]) - 0.2) <= 1e-9
    assert lines[1].split()[2] == "True"


def test_top_level_exports_are_explicit():
    assert len(qwsed.__all__) == len(set(qwsed.__all__))
    for name in qwsed.__all__:
        assert hasattr(qwsed, name), name
    # submodules are attributes once imported, but not exports
    public = {n for n, v in vars(qwsed).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(qwsed.__all__)


def test_runtime_is_numpy_only(tmp_path):
    """A fresh interpreter imports qwsed and its CLI and runs one analyze
    without loading any package that only the tests declare."""
    out = tmp_path / "report.json"
    code = ("import sys\n"
            "import qwsed, qwsed.cli\n"
            f"argv = ['analyze', '--family', 'path:5', '--out', {str(out)!r}]\n"
            "assert qwsed.cli.main(argv) == 0\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["classification"] == "not-sedentary"
