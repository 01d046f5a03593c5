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
``pic`` case makes no BLAS call while it splits and deposits its paths:
the face-crossing walk is scalar float arithmetic in a fixed order, so
only the per-tet gradients (``numpy.linalg.inv``) come from LAPACK.

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
        "audit.json": "4a01a5c430f331e696361c1443ae5dee33ae772f25b924c2e11f48b477b07c2f",
    },
    "audit/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "e24cb57058986bd468ca155a3b947071a4f5275094cf980f8dae6a0701507600",
    },
    "audit/annulus8": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "928dfc8c212fde2dfbf7046036a65e52c0a14c33f1521d757df449329c009e8e",
    },
    "audit/jittered3": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "b097783e174c86f0226424f75197f8da3e0101b59849b42f3ca004652458fbde",
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
        "star.eps_inv.coo": "73b936d1f67cb10654124720e365eb56447487eff694401b7d5e6188f9d31f50",
        "star.mu.coo": "0371a94ea4d6a745c0d2dc41f3a77f939258b069efc1f90fba13f372cb875244",
    },
    "assemble/jittered3": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "ce23d3c82d6c81b342717f421e10c28e77e8af7c48cfa77f4dd599483f5d5794",
        "star.mu.coo": "4a4ab13fbbb145310df706a986fd2d915c3e6edbd6e9b7a046699c0740f27e42",
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
        "eigen.json": "92d3c842f9e2b82880003e4685abfcd11c8727aafa2af6c7bc977dccf92884ce",
    },
    "simulate/exact": {
        "exit": 0,
        "stdout": "73f74819ba7b6d2e5210ec1a0c61c0d9312fd8d7d006cc750cf3427b9369f3be",
        "trace.csv": "b4fc120c44022ebd2b8653a7aef8cda93791ea578a6a3c51fb0a386a672f2747",
    },
    "simulate/spai:2": {
        "exit": 0,
        "stdout": "73f74819ba7b6d2e5210ec1a0c61c0d9312fd8d7d006cc750cf3427b9369f3be",
        "trace.csv": "dd24d287f65c75d1a9b88ff6f2b1d6e11629a37175a73563c18e62f052d0fa51",
    },
    "simulate/every7": {
        "exit": 0,
        "stdout": "9033fea19589948d9fe9b0b848d22b4099a9796f806068e57e9e4c82e99ea0cc",
        "trace.csv": "e162e5406913200881e1202700e930f04b235abbf0bc6629a1cc52ebee9ae5f6",
    },
    "pic": {
        "exit": 0,
        "stdout": "978e2dc99fa0e13896c02218feab5a887a04e2e13f05d64b4febc7916a2fbbf0",
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
