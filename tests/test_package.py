import contextlib
import io
import pathlib
import re
import types

import qwsed

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
