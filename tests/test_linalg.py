import numpy as np
import pytest

from hullkit import affine_rank
from hullkit.linalg import Hyperplane


def test_affine_rank_cases():
    assert affine_rank([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]) == 2
    assert affine_rank([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]) == 1
    assert affine_rank([(0.0, 0.0)]) == 0


def test_affine_rank_permutation_invariant():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (6, 4))
    pts[4] = pts[0] + 0.5 * (pts[1] - pts[0])  # force a dependency
    base = affine_rank(pts)
    for _ in range(10):
        perm = rng.permutation(6)
        assert affine_rank(pts[perm]) == base


def test_hyperplane_requires_unit_normal():
    with pytest.raises(ValueError):
        Hyperplane(np.array([1.0, 1.0]), 0.0)
