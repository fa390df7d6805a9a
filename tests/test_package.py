"""The package's public surface and the checks its layers share."""

import math
import re
from pathlib import Path

import pytest

import tsqueue
from tsqueue import distribution, fitting, norros, solver, zeta
from tsqueue.cli import figure_dataset
from tsqueue.errors import DomainError

LAYERS = (distribution, solver, norros, fitting, zeta)


def test_package_exports_the_layer_modules_names():
    expected = ["errors", *(name for layer in LAYERS for name in layer.__all__),
                "__version__"]
    assert tsqueue.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert tsqueue.errors.DomainError is DomainError
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(tsqueue, name) is getattr(layer, name)
    assert isinstance(tsqueue.__version__, str)


def test_readme_lists_each_layer_modules_names():
    readme = Path(__file__).parent.parent / "README.md"
    listed = re.findall(r"^- `tsqueue\.(\w+)`: (`.*`)$", readme.read_text(), re.M)
    assert [(module, re.findall(r"`(\w+)`", names)) for module, names in listed] == [
        (layer.__name__.removeprefix("tsqueue."), layer.__all__) for layer in LAYERS
    ]


@pytest.mark.parametrize("q", [0.5, 1.0, 1.2, math.nan, math.inf])
@pytest.mark.parametrize("check", [
    lambda q: distribution.QueueModel(q, 1.0),
    lambda q: solver.solve_beta(q, 1.0),
    lambda q: fitting.generate_correspondence(q),
    lambda q: figure_dataset(1, (q,)),
], ids=["QueueModel", "solve_beta", "generate_correspondence", "figure_dataset"])
def test_one_q_domain_check(check, q):
    message = f"entropy index q must lie strictly in (1/2, 1), got q={q}"
    with pytest.raises(DomainError, match=re.escape(message)):
        check(q)
