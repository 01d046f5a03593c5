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
assemble, simulate, eigen, pml: every Hodge element matrix is a batched
BLAS product) and fail those cases without any change to declat.  The
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
}

# case id -> argv; {mesh} names an input from MESHES, {out} the case's directory.
CASES = {
    **{f"audit/{m}": ["audit", "--mesh", f"{{{m}}}", "--json", "--out", "{out}/audit.json"]
       for m in ("kuhn", "box4", "annulus8", "jittered3")},
    **{f"dof/{m}": ["dof", "--mesh", f"{{{m}}}", "--out", "{out}/dof.json"]
       for m in ("kuhn", "box4", "annulus8", "jittered3")},
    **{f"assemble/{m}": ["assemble", "--mesh", f"{{{m}}}", "--which", "galerkin",
                         "--out", "{out}/star.coo"]
       for m in ("kuhn", "box4", "annulus8", "jittered3")},
    **{f"eigen/{m}": ["eigen", "--mesh", f"{{{m}}}", "--out", "{out}/eigen.json"]
       for m in ("kuhn", "box4")},
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
        "audit.json": "754ac447f39e0bf30d3976630f4d8fbd69df5dd006cbec4accfeea6016cf4661",
    },
    "audit/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "9a019812a34307b21e130ebb8147ad51fcf63f54706cea7d33fe4c9b3f5f26ee",
    },
    "audit/annulus8": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "ed48d315ce31fc626e45552b9505eaa13ddf24912579fec8353de1f4fab01d97",
    },
    "audit/jittered3": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "a3588fb8844699b62b3c7bc46ff305729f5e2adc4968cd7b1d81079e977db69f",
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
        "star.eps_inv.coo": "8fcfd968c9bd179ae256477b19b120c81dd415290ecf7830c60002acb4a4aa44",
        "star.mu.coo": "b935206b67aae3d31ca4ac843eef11942ce6fa15cd1effe6a85f637d207e094a",
    },
    "assemble/box4": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "e45156b2b74fd128da44d5c3436b42e51aa47b3bb915947b3b14340380df83c5",
        "star.mu.coo": "15e42c5cc8e141f6ddcfabb6e79c363e5cb3959188daa563f22ddd3770544d71",
    },
    "assemble/annulus8": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "fdf431a25403899c9fb5211187e1f424e8da4232249fe2b93d74561dfdceb370",
        "star.mu.coo": "8db8b706e2dd708489a4f8970a5248f679bffbfc2d4940d20c3a21cf94cc96ba",
    },
    "assemble/jittered3": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "2ba16f713cbeaf97bd2baecaf81d50d6f096f059cfff09ee8b5cf4a69e6603fc",
        "star.mu.coo": "9270071c071a1102d9cf255cdcb5e9acc3e6d252bcab3bb7d1df8d6d6b02bf12",
    },
    "eigen/kuhn": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "b43140e28533e311365fa6aeb6944c265290ee718ca771fd7f7ba47dfeeaa8df",
    },
    "eigen/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "1116b4dfdd3e47261b2a5ff6fd1ef47275de8d0a420a990566088ebd2933954e",
    },
    "simulate/exact": {
        "exit": 0,
        "stdout": "73f74819ba7b6d2e5210ec1a0c61c0d9312fd8d7d006cc750cf3427b9369f3be",
        "trace.csv": "44ed05e38633979fddfd6fa2bdee05cfbdf274bc6d9f8be57a797bb0b0c1e8a3",
    },
    "simulate/spai:2": {
        "exit": 0,
        "stdout": "73f74819ba7b6d2e5210ec1a0c61c0d9312fd8d7d006cc750cf3427b9369f3be",
        "trace.csv": "0af3a4bb46e0eac39c0f841bb12d7a0368ac47688e402f67badc19d79a21607c",
    },
    "simulate/every7": {
        "exit": 0,
        "stdout": "a3f6d2ff2e9d983d186cfa2fb6064f52e42c7ac713f0910ffd9bf34c7b0abbc9",
        "trace.csv": "7c3eeed2f4249dd1d9ba9ecdcb593c69e091cdff6ef757cd962da865cd7fcf4c",
    },
    "pic": {
        "exit": 0,
        "stdout": "978e2dc99fa0e13896c02218feab5a887a04e2e13f05d64b4febc7916a2fbbf0",
    },
    "pml": {
        "exit": 0,
        "stdout": "9b60aecd0b3aca6d3748f4d10f55796a4d82e1cf3ab67c58607de933f2c90e7c",
        "sweep.csv": "210f9d058ad06de5f0440d3abdd8c5f3e8f3494543b98f56609cfc534a26211d",
    },
    "pml/flags": {
        "exit": 0,
        "stdout": "8dd1b0e693d11e77a836c9b49eb9419438a8d5cadbafbfd3d3df52facddc3eef",
        "sweep.csv": "39cc26e63267c3422e5eca37e9134af204462035be51ecee26b18fda0ae7f147",
    },
    "genmesh/tet1": {
        "exit": 0,
        "stdout": "d4e709886fffc7cc19b03e16e7005f3ca81ffe36041b6349dc4d49c4e6049587",
        "m.mesh": "4d8c0040c0648d20434573e683fce2b42276fe08388d213208d1f6038ff0ddbb",
    },
    "genmesh/kuhn": {
        "exit": 0,
        "stdout": "77131fd51cd9a14fedd05dac0f0e6816125f17ba239c7e714bce4e4ae01bdfb9",
        "m.mesh": "a9c6cdfa59e181482af78e6063eae7a47bff4c2175610ab85e7956786e1bb3c1",
    },
    "genmesh/box": {
        "exit": 0,
        "stdout": "e52bb4ff0a09f355ce713000b6a4cd0c4aa90573511a162e81351e430664417b",
        "m.mesh": "41f0fadbfef00c74ec4f75bb5ee0a25b34e481d15df046ae8c0884823d557ae1",
    },
    "genmesh/annulus": {
        "exit": 0,
        "stdout": "23c9930d8df1249c1d7cd338434983ba483ffbe4574fe99b5726bde828573ed3",
        "m.mesh": "e958c7a481c29279825659ce43d8555734cd61052834d9d26f11ec2c3dbf1c19",
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
