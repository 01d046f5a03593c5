"""Golden outputs: SHA-256 digests of what each ``declat`` subcommand writes.

Every case runs ``declat.cli.main`` in a directory of its own and digests
its exit code, its stdout (with the directory's path replaced by
``<tmp>``) and every file it leaves there.  The inputs are small seeded
meshes, so the whole set runs in about a second.

The digests belong to this toolchain: numpy 2.4 and scipy 1.17 with their
bundled BLAS and LAPACK, run on one thread (``conftest.py`` pins BLAS
and OpenMP before numpy loads, since threaded ``potrf`` and dense
``eigh`` round differently).  Another BLAS, or another release of either
library, may move last digits of the floating-point outputs (audit,
assemble, simulate, eigen, pml: every Hodge element matrix comes from
batched BLAS products, each tet's weighted gradient Gram and a
moment-table product per group of 8 tets) and fail those cases without
any change to declat.  The
``pic`` case makes no BLAS or LAPACK call: the per-tet gradients are face
area normals over a determinant (``np.cross`` and ``np.einsum``), and the
face-crossing walk that splits and deposits its paths is scalar float
arithmetic in a fixed order.

A change that moves an output on purpose updates that digest and names the
output and the reason in ``CHANGES.md``; a digest is never dropped to get a
pass.
"""

import contextlib
import hashlib
import io

import pytest

from declat import generators
from declat.cli import main
from declat.mesh import write_mesh

MESHES = {
    "kuhn": generators.kuhn_cube,
    "box4": lambda: generators.box_mesh(4),
    "annulus8": lambda: generators.annulus_mesh(8),
    "jittered3": lambda: generators.jittered_box_mesh(3, seed=5),
    "jittered4": lambda: generators.jittered_box_mesh(4, seed=5),
    "box6": lambda: generators.box_mesh(6),
    "sliver": lambda: generators.sliver_mesh(delta=1e-7),
}

# case id -> argv; {mesh} names an input from MESHES, {out} the case's directory.
CASES = {
    **{f"audit/{m}": ["audit", "--mesh", f"{{{m}}}", "--json", "--out", "{out}/audit.json"]
       for m in ("kuhn", "box4", "annulus8", "jittered3")},
    # The element bound does not clear the margin: the check_spd rows and exit 1.
    "audit/sliver": ["audit", "--mesh", "{sliver}", "--json", "--out", "{out}/audit.json"],
    **{f"dof/{m}": ["dof", "--mesh", f"{{{m}}}", "--out", "{out}/dof.json"]
       for m in ("kuhn", "box4", "annulus8", "jittered3")},
    **{f"assemble/{m}": ["assemble", "--mesh", f"{{{m}}}", "--which", "galerkin",
                         "--out", "{out}/star.coo"]
       for m in ("kuhn", "box4", "annulus8", "jittered3")},
    **{f"eigen/{m}": ["eigen", "--mesh", f"{{{m}}}", "--out", "{out}/eigen.json"]
       for m in ("kuhn", "box4")},
    # 1,206 unknowns: above maxwell._DENSE_CUTOFF, so the shift-invert path.
    "eigen/box6": ["eigen", "--mesh", "{box6}", "--count", "3", "--sigma", "19",
                   "--out", "{out}/eigen.json"],
    **{f"simulate/{inv}": ["simulate", "--mesh", "{jittered4}", "--steps", "200", "--seed", "5",
                           "--hodge-inverse", inv, "--out", "{out}/trace.csv"]
       for inv in ("exact", "spai:2")},
    "simulate/every7": ["simulate", "--mesh", "{jittered4}", "--steps", "200", "--seed", "5",
                        "--trace-every", "7", "--out", "{out}/trace.csv"],
    "pic": ["pic", "--paths", "200"],
    "pml": ["pml", "--sweep", "--out", "{out}/sweep.csv"],
    "pml/flags": ["pml", "--sweep", "--nx", "2", "--nz", "10", "--length", "2.5",
                  "--pml-start", "1.5", "--source-z", "0.375", "--omega-factor", "1.6",
                  "--window-lo", "0.9", "--window-hi", "1.4", "--omega-maxes", "0,3,6",
                  "--out", "{out}/sweep.csv"],
    **{f"genmesh/{kind}": ["genmesh", "--kind", kind, "--n", "3", "--out", "{out}/m.mesh"]
       for kind in ("tet1", "kuhn", "box", "annulus")},
}

GOLDEN = {
    "audit/kuhn": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "646280b6fdbfd5ba3b204d96e42a88153bc70c8f44f65321de1c2ba6a462e1cf",
    },
    "audit/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "edacb6808b02d4dbf8ef22cfd644a623fc7cec66fc0e2f5b2796560dbcd44f11",
    },
    "audit/annulus8": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "5b604669d88a22fe8e07f3aef86c62e8149c6d5abc5d2bc2616b13fae5c97b06",
    },
    "audit/jittered3": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "7c0425d5e48fef547f7358ee79af09dea59a4e00a3b228f9cc99292932742429",
    },
    "audit/sliver": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "ffcdc7c2889306d97d33a87597314147d3a73725c30689eebed7e399043ba730",
    },
    "dof/kuhn": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dof.json": "96212c42a4803aceb43c02ccddac2d2fc679b37beee1aecbaaa91fd36bcea219",
    },
    "dof/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dof.json": "f34e00828c537ec99198c80ccb427f6307db75565a841f3e8856a751065f954a",
    },
    "dof/annulus8": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dof.json": "e021c9483d85a8400dd7b25d76a3c0ed1059c167086dec59d819010bd857018d",
    },
    "dof/jittered3": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dof.json": "8e2b07462721af23a90ca2bf751edc3f2af8a1392be698b5e703cca6d0e01896",
    },
    "assemble/kuhn": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "b5aacbb2aaea5900eeb262fadb986f5dec017cf24818d80cab5d84fe77233662",
        "star.mu.coo": "1fdae987c711d20e7de77c47f10ef8608fece0bdac352db140f887b53c43215f",
    },
    "assemble/box4": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "475dfcaa058261aadfb316d0b9f360f7e0ff2e3e461bb9f0b347312ebf912008",
        "star.mu.coo": "537829fe1a770f060b2e642b0d945bedd60ab6cbcd24adb841870dea0207405d",
    },
    "assemble/annulus8": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "571735c8de8ddba80278bd9c01990c5669ba55249ba06fa6629b6f3aa53547ef",
        "star.mu.coo": "a869f20091f6eaab142681830103c72a11ad4be7a90281332a95bea1f97c7403",
    },
    "assemble/jittered3": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "6f7ffd17b598c704238969e156e577c5f7ec2ea7ac01760eefa15cf195a303b0",
        "star.mu.coo": "981c5361525824cbdd8bbb2d6631f65ff3fff6ff5f801c5c3e5491d4ab7296ae",
    },
    "eigen/kuhn": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "00b6e43306e8cb1f97a84aeca96f0d9db48631d847f9d21c5b22fb6fbf421550",
    },
    "eigen/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "385021ad33442b979b0339d63d67a34c1897248639e032b7f587bd801e9bd43b",
    },
    "eigen/box6": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "b46d5a27bb6189359670c2c2de46d269608fc4d2e96a5fc4213281312fad9efc",
    },
    "simulate/exact": {
        "exit": 0,
        "stdout": "72c8eb7d0a5f7888b578ff2858c60dced41e42bf56c4373a7b73fe7b7604fcc5",
        "trace.csv": "95747d2b15576de70befba4c7a0800a28e98b1d10c6e38bee8023114f803ceee",
    },
    "simulate/spai:2": {
        "exit": 0,
        "stdout": "914a5cdf05981650ae49b434a9d0733a40272a2ba632ca9df8ec9a2745300855",
        "trace.csv": "e3c4c1763ba68ad0c5caa0f9a39fdf3114eb299aa665a243350aff25eba88158",
    },
    "simulate/every7": {
        "exit": 0,
        "stdout": "c33a4bac5fbd0b7220c5cbcb5fe8f30855bae9b9d37e23b7cdec51754ac5130d",
        "trace.csv": "b31c416e46f3f3f21e392deb31bccdbdbf4adf95bc261460d7e7730d16e3cf8f",
    },
    "pic": {
        "exit": 0,
        "stdout": "3d5fb894d0ea7cf763fbb5b003b8dec904e0288b5e5f0d976926e7d4714e444d",
    },
    "pml": {
        "exit": 0,
        "stdout": "9b60aecd0b3aca6d3748f4d10f55796a4d82e1cf3ab67c58607de933f2c90e7c",
        "sweep.csv": "a5778040d4ee89aa74789ffcca9aa5e68d348b31529915a2dafd4f18c8ba53a9",
    },
    "pml/flags": {
        "exit": 0,
        "stdout": "8dd1b0e693d11e77a836c9b49eb9419438a8d5cadbafbfd3d3df52facddc3eef",
        "sweep.csv": "151037c6dcdd0bf8a4acbb0c23e8afb5e22bb280d4a93cebdb80aaf253f1a993",
    },
    "genmesh/tet1": {
        "exit": 0,
        "stdout": "d4e709886fffc7cc19b03e16e7005f3ca81ffe36041b6349dc4d49c4e6049587",
        "m.mesh": "4d8c0040c0648d20434573e683fce2b42276fe08388d213208d1f6038ff0ddbb",
    },
    "genmesh/kuhn": {
        "exit": 0,
        "stdout": "77131fd51cd9a14fedd05dac0f0e6816125f17ba239c7e714bce4e4ae01bdfb9",
        "m.mesh": "4d4a42a221b6f9428cfdb65c1269135ff5dee2d896ad6bd15a23e0b647efc434",
    },
    "genmesh/box": {
        "exit": 0,
        "stdout": "e52bb4ff0a09f355ce713000b6a4cd0c4aa90573511a162e81351e430664417b",
        "m.mesh": "71d3bbb36f014614293eab55b1dfbdac079d8643e0fc5f545768de323876c7f6",
    },
    "genmesh/annulus": {
        "exit": 0,
        "stdout": "23c9930d8df1249c1d7cd338434983ba483ffbe4574fe99b5726bde828573ed3",
        "m.mesh": "cbc55fd1595a268cc8abd94944e3f4b72eff36d1a215dfa567ffb80a3786a88c",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    paths = {}
    for name, make in MESHES.items():
        paths[name] = root / f"{name}.mesh"
        write_mesh(make(), paths[name])
    return paths


def run_case(case: str, inputs: dict, work) -> dict:
    """Exit code, stdout and every output file of one case, as SHA-256 digests."""
    argv = [arg.format(out=work, **inputs) for arg in CASES[case]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    got = {"exit": code, "stdout": _sha(stdout.getvalue().replace(str(work), "<tmp>").encode())}
    got.update({p.name: _sha(p.read_bytes()) for p in sorted(work.iterdir())})
    return got


@pytest.mark.parametrize("case", CASES)
def test_cli_output_digest(case, inputs, tmp_path):
    assert run_case(case, inputs, tmp_path) == GOLDEN[case]
