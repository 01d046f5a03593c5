import os

# One BLAS and OpenMP thread, set before numpy loads: OpenBLAS's threaded
# kernels (potrf from 100 x 100 blocks up, dense eigh) round differently
# from its one-thread ones, so the golden digests would otherwise depend on
# the host's core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import settings

from declat import generators
from declat.mesh import classify_boundary
from declat.whitney import WhitneyBasis

# Fixed examples and no per-example deadline: the suite stays
# deterministic on hosts whose speed varies between runs.
settings.register_profile("declat", derandomize=True, deadline=None, database=None)
settings.load_profile("declat")


@pytest.fixture(scope="session")
def single_tet():
    return generators.single_tet()


@pytest.fixture(scope="session")
def kuhn():
    return generators.kuhn_cube()


@pytest.fixture(scope="session")
def box3():
    return generators.box_mesh(3)


@pytest.fixture(scope="session")
def annulus8():
    return generators.annulus_mesh(8)


@pytest.fixture(scope="session")
def jittered3():
    return generators.jittered_box_mesh(3, seed=5)


@pytest.fixture(scope="session")
def all_meshes(single_tet, kuhn, box3, annulus8, jittered3):
    return {
        "single_tet": single_tet,
        "kuhn": kuhn,
        "box3": box3,
        "annulus8": annulus8,
        "jittered3": jittered3,
    }


@pytest.fixture(scope="session")
def basis_of():
    cache = {}

    def get(mesh) -> WhitneyBasis:
        key = id(mesh)
        if key not in cache:
            cache[key] = WhitneyBasis(mesh)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def classification_of():
    cache = {}

    def get(mesh):
        key = id(mesh)
        if key not in cache:
            cache[key] = classify_boundary(mesh)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
