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
        "audit.json": "08172d591151bca4e8e349507ff7b181c70151fb10602cb448402b9d3154152a",
    },
    "audit/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "a809da0ad092fcdbabf9069fb93546ec748a6ffe11ee496202637d3ad331b57a",
    },
    "audit/annulus8": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "ce2a808267d51afb4dc89c5a08a6bc81dd6b9b774e0defd2e62cc4d9d529a278",
    },
    "audit/jittered3": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "9aff4c253d0a4a11c1f48dbc084f1aa624ca23362e8940d51d41d577cd07e089",
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
        "star.eps_inv.coo": "17a6a011378ecf0da9f1d1d367bd075c72c6c63752ac0a20bdd263248012c78c",
        "star.mu.coo": "fdb9c392affb5f2b5c1fb73cf341e9b434cd910f1bdad9819331482529d0c6b5",
    },
    "assemble/box4": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "afb205ecb36a275d711aa66af5d5eccf43636d561e7d62908940869b7e3ed4ee",
        "star.mu.coo": "f4ca19fce362deda189b7f23fb234d3f3ae6179b7df1236ff19b8bd1d48bf169",
    },
    "assemble/annulus8": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "2049f3fe3fc4a5d34374248fb1cb4c450490958c5d43b03a8d70fd5951e5dbf7",
        "star.mu.coo": "8b810f70ee90ab412dd920674009d37b0cbd24fb7014f7de5fb3033fafe8c697",
    },
    "assemble/jittered3": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "8b023e0c78caa58e93a7c7fc8fa1c3084e97b9a9a6db658ae86f3ec5371bacb6",
        "star.mu.coo": "02d6c8217cc510cf6aa61b642d622ba8984e4d1b4661da0319e6512345f5c289",
    },
    "eigen/kuhn": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "00b6e43306e8cb1f97a84aeca96f0d9db48631d847f9d21c5b22fb6fbf421550",
    },
    "eigen/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "d19daa6d5f2cd213bcfcdb97ec8728285dd81735eb1d9c636cb66a85dc9d7095",
    },
    "simulate/exact": {
        "exit": 0,
        "stdout": "6dc9736e42ae750b34f370fdac2fa1c418b76e054cab03d392b918c86a5ba10c",
        "trace.csv": "749a27235992babccb5547add5affbf041c25dda176b5f95ea36246f2ad6b03a",
    },
    "simulate/spai:2": {
        "exit": 0,
        "stdout": "72c8eb7d0a5f7888b578ff2858c60dced41e42bf56c4373a7b73fe7b7604fcc5",
        "trace.csv": "b395c957fe9a7920b8de2427f035863db820eafe04c2e99e5bb395a5d4a91417",
    },
    "simulate/every7": {
        "exit": 0,
        "stdout": "a3f6d2ff2e9d983d186cfa2fb6064f52e42c7ac713f0910ffd9bf34c7b0abbc9",
        "trace.csv": "bbeb2e6852bb685fdf1a1dacc6eafaf9d05e57aef403213de36f3d21c7eac8fc",
    },
    "pic": {
        "exit": 0,
        "stdout": "978e2dc99fa0e13896c02218feab5a887a04e2e13f05d64b4febc7916a2fbbf0",
    },
    "pml": {
        "exit": 0,
        "stdout": "9b60aecd0b3aca6d3748f4d10f55796a4d82e1cf3ab67c58607de933f2c90e7c",
        "sweep.csv": "b83b80205c7c8f21e36dee51d33b2fd8214cb3b183c54dc5106bb6edf4dcae9c",
    },
    "pml/flags": {
        "exit": 0,
        "stdout": "8dd1b0e693d11e77a836c9b49eb9419438a8d5cadbafbfd3d3df52facddc3eef",
        "sweep.csv": "8a0c959cc8c6bb73d5a7ee3c0dbf20621c88a185cbce80fb2943c46dbd225032",
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
