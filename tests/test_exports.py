import subprocess
import sys

import sketchprune
from sketchprune import bounds, core, experiments, ntk, scores, sketch


def test_package_exports_are_the_union_of_module_exports():
    modules = (core, sketch, scores, bounds, ntk, experiments)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert len(sketchprune.__all__) == len(set(sketchprune.__all__))
    assert set(sketchprune.__all__) == set(names)
    for name in names:
        assert hasattr(sketchprune, name), name
    # a fresh interpreter, since other tests import the CLI into this one
    code = (
        f"import sys; sys.path[:0] = {sys.path!r}; import sketchprune; "
        "print('sketchprune.cli' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
