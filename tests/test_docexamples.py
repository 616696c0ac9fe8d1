import doctest
import re
from pathlib import Path

import numpy as np
import pytest

import condaalen.covariance
import condaalen.data
import condaalen.estimators
import condaalen.kernels
import condaalen.simulate
import condaalen.stepfun
from condaalen.data import ABSORBED, CENSORED, ObservedPath, StateSpace, load_sample

MODULES = (
    condaalen.stepfun,
    condaalen.data,
    condaalen.kernels,
    condaalen.estimators,
    condaalen.covariance,
    condaalen.simulate,
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(section: str, lang: str) -> list[str]:
    """The ```lang code blocks of one ``## section`` of the README."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    text = text.split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_data_format_example(tmp_path):
    # the text says: s0 jumps to 2 at 1.25 and is absorbed in 3 at 2.0,
    # s1 is censored in 1 at 1.8, and state 3 is absorbing
    (block,) = _readme_blocks("Data format", "")
    (tmp_path / "example.csv").write_text(block, encoding="utf-8")
    sample = load_sample(tmp_path / "example.csv")
    s0, s1 = sample.paths
    assert s0 == ObservedPath((0.51639863,), 1, ((1.25, 2), (2.0, 3)), 2.0, ABSORBED)
    assert s1 == ObservedPath((0.57066759,), 1, (), 1.8, CENSORED)
    assert sample.state_space == StateSpace((1, 2, 3), frozenset({3}))


def test_readme_library_snippets_run():
    blocks = _readme_blocks("Library use", "python")
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    res = namespace["res"]
    assert namespace["a"] == res.bandwidth
    np.testing.assert_array_equal(namespace["w"].weights, res.weights.weights)
