"""Golden outputs: SHA-256 digests of what each ``declat`` subcommand writes.

Every case runs ``declat.cli.main`` in a directory of its own and digests
its exit code, its stdout (with the directory's path replaced by
``<tmp>``) and every file it leaves there.  The inputs are small seeded
meshes, so the whole set runs in about a second.

The digests belong to this toolchain: numpy 2.4 and scipy 1.17 with their
bundled BLAS and LAPACK.  Another BLAS, or another release of either
library, may move last digits of the floating-point outputs (simulate,
eigen, pml) and fail those cases without any change to declat.

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
        "audit.json": "49dca642d71811cec6ceacba90466617569b067f3a96dd20bbfde4eac491e9a4",
    },
    "audit/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "e88c96ba53040dae72387f8e259b47351ac4b448bdeed4ef556a37c77d8334e9",
    },
    "audit/annulus8": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "7bfafc371fc94929bf015d77efd48943e1a4e0816f2c9672e27ba1770be744b1",
    },
    "audit/jittered3": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit.json": "d6708e8a609454a419badad6a1ca8edd9f335be64b574c3917d30e5e9247a71b",
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
        "star.eps_inv.coo": "1062137c37dc667d1c8c2cdc5f5f5361e70a9b2b47c90f96294c878919c1c1ba",
        "star.mu.coo": "f13ba88d0529adc7bebfcc864d5e86eb658c8eb3056faa84bfd093c60ce0cdc7",
    },
    "assemble/box4": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "4c750cfb8c70e2faf57dc8004fbe39d3f41ca7ea5906786ab0fd81841219b360",
        "star.mu.coo": "a9675018b888a014bcabbeef0e133fefbc5cfde5b997e347a77cc21b337d7e3f",
    },
    "assemble/annulus8": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "e0c520e38bb49b1f9a718781bffa103b613872fdd1383aa3273435b87b5cff70",
        "star.mu.coo": "b0696956489ad9f23bda1a089db91c7b8a6e6e65e6d9498ae3276a84fc842b05",
    },
    "assemble/jittered3": {
        "exit": 0,
        "stdout": "facc191844c6c1f3d89a43d26891f720fd8f96adf12638ef40bd9d7c78015ffe",
        "star.eps_inv.coo": "0c49bca964f2d5084eadd48f91b80e76414939d7186a8f4b5dafa168a9fc999c",
        "star.mu.coo": "9dc8980a91ecc5a06416fc53367ed0f808cec418c1e4a620466ce629c23d1d67",
    },
    "eigen/kuhn": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "92835dc274d8a10f0cf5d1f2510a89e7fc5d2d8b1032876f02fcdc4e1ea824b8",
    },
    "eigen/box4": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eigen.json": "cc8b342e03feb9c9b79db23523831019ae69023947bd30024c730a363640c3d5",
    },
    "simulate/exact": {
        "exit": 0,
        "stdout": "8aa2fac832392eba58b10436d7d9cc716aafa35107bf57d8c03065d5e6af2365",
        "trace.csv": "bb3ab3805a7f5057b0fb600fb7aebb7ae0bdbdc8465c2d2d7d14006418477ffd",
    },
    "simulate/spai:2": {
        "exit": 0,
        "stdout": "cae4b7cd17c3a32e2ff7788083714f5b58de35b1d391af53e1761649311bfb30",
        "trace.csv": "102517a73b5b6d9f6ffa01f965a8415ff4f88e5482ab60e8a6aac2988d97daad",
    },
    "pic": {
        "exit": 0,
        "stdout": "929272e4b58a058f1c22e1b21c8ae7d270a2b91dcd0f6087a8d11ffbc68f3f37",
    },
    "pml": {
        "exit": 0,
        "stdout": "9b60aecd0b3aca6d3748f4d10f55796a4d82e1cf3ab67c58607de933f2c90e7c",
        "sweep.csv": "618c6c77a39376d7551273744c3ddf6f390620176c14b77ec040c2eadf3fa806",
    },
    "pml/flags": {
        "exit": 0,
        "stdout": "8dd1b0e693d11e77a836c9b49eb9419438a8d5cadbafbfd3d3df52facddc3eef",
        "sweep.csv": "5915f5306aca1cc3a297af472dd4f1e6f6ba120784c206c4b2dd6c123d0ad884",
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
