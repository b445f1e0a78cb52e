"""Command surface: exit-code contract (0 ok, 2 usage, 3 solver budget,
4 policy/label mismatch, 5 verification failure), stdout JSON reports,
and pipeline byte determinism."""
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from qpaug import Solution, SparseMatrix
from qpaug.cli import _build_parser, main
from qpaug.fileio import load_instance, load_manifest, save_instance, save_manifest

from conftest import (
    DATA, MALFORMED_NUMBERS, labeled_e1, make_instance, malformed_instance_file, repacked,
)

GEN_LP = ["generate", "--family", "lp", "--rows", "8", "--cols", "4",
          "--density-a", "0.5", "--bounded", "--slack-noise", "4.0"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_corpus(tmp_path, capsys, count=5, solve=True, seed=7, sub="corpus"):
    out = tmp_path / sub
    argv = GEN_LP + ["--count", str(count), "--seed", str(seed), "--out", str(out)]
    if solve:
        argv.append("--solve")
    code, _, _ = run(capsys, argv)
    assert code == 0
    return out


# ------------------------------------------------------------------- generate

def test_generate_labeled_corpus(tmp_path, capsys):
    out = tmp_path / "ds"
    code, stdout, _ = run(capsys, GEN_LP + [
        "--count", "10", "--seed", "7", "--solve", "--out", str(out)])
    assert code == 0
    report = json.loads(stdout)
    assert report["count"] == 10
    assert report["label_rate"] == 1.0
    assert (out / "manifest.json").exists()
    entries = load_manifest(out / "manifest.json")
    assert len(entries) == 10
    assert all(e["labeled"] for e in entries)


def test_generate_count_zero(tmp_path, capsys):
    out = tmp_path / "empty"
    code, stdout, _ = run(capsys, GEN_LP + ["--count", "0", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert load_manifest(out / "manifest.json") == []


def test_generate_byte_identical(tmp_path, capsys):
    d1 = gen_corpus(tmp_path, capsys, sub="one")
    d2 = gen_corpus(tmp_path, capsys, sub="two")
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_generate_solver_budget_exit_3(tmp_path, capsys):
    # free 2x3 LPs are unbounded, so labeling fails and the budget trips
    code, _, err = run(capsys, [
        "generate", "--family", "lp", "--rows", "2", "--cols", "3",
        "--density-a", "1.0", "--count", "3", "--seed", "0", "--solve",
        "--failure-budget", "0.0", "--out", str(tmp_path / "bad")])
    assert code == 3
    assert err == "solver failed on 3/3 instances, over budget 0.0\n"
    # files and manifest still exist
    assert (tmp_path / "bad" / "manifest.json").exists()


def test_generate_usage_errors(tmp_path, capsys):
    assert main(["generate", "--family", "socp", "--count", "1",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(GEN_LP[:1] + ["--frobnicate"]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, [
        "generate", "--family", "lp", "--rows", "4", "--cols", "4",
        "--density-a", "0.0", "--count", "1", "--seed", "0",
        "--out", str(tmp_path / "x")])
    assert code == 2
    assert "density" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("family, given, missing", [
    ("lasso", [], "--samples, --features, --lambda-reg, --density"),
    ("svm", ["--samples", "8", "--density", "0.5"], "--features, --lambda-reg"),
    ("portfolio", ["--density", "0.4"], "--assets"),
])
def test_generate_names_missing_size_flags(tmp_path, capsys, family, given, missing):
    """The error names the flags, not the generator's parameters."""
    out = tmp_path / "x"
    code, _, err = run(capsys, ["generate", "--family", family, *given, "--count", "1",
                                "--out", str(out)])
    assert code == 2
    assert err == f"error: --family {family} needs {missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, missing", [
    ("solve", "--manifest, --out"),
    ("generate", "--family, --count, --out"),
    ("metrics", "--pairs"),
])
def test_missing_required_flags_named_at_once(capsys, command, missing):
    """Before, only the first missing flag was named."""
    code, stdout, err = run(capsys, [command])
    assert code == 2 and stdout == ""
    assert err.endswith(f"error: the following arguments are required: {missing}\n")


@pytest.mark.parametrize("command", sorted(_build_parser()[1]))
def test_every_subcommand_has_help(capsys, command):
    code, stdout, _ = run(capsys, [command, "--help"])
    assert code == 0
    assert stdout.startswith(f"usage: qpaug {command} ")


@pytest.mark.parametrize("family, doc, flags", [
    ("svm", {"samples": 4, "features": 3, "lambda-reg": 0.1, "density": 0.5},
     ["--samples", "4", "--features", "3", "--lambda-reg", "0.1", "--density", "0.5"]),
    ("portfolio", {"assets": 4, "density": 0.5}, ["--assets", "4", "--density", "0.5"]),
])
def test_config_keys_are_flag_names(tmp_path, capsys, family, doc, flags):
    """Config keys for size flags whose generator keyword differs from the
    flag name write what the flags write; the keywords are not keys."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    base = ["generate", "--family", family, "--count", "2", "--seed", "3"]
    for sub, extra in (("config", ["--config", str(cfg)]), ("flag", flags)):
        code, _, _ = run(capsys, [*base, *extra, "--out", str(tmp_path / sub)])
        assert code == 0
    names = sorted(p.name for p in (tmp_path / "flag").iterdir())
    assert len(names) == 3
    for name in names:
        assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
    for key in ("m", "n_samples"):
        cfg.write_text(json.dumps({key: 4}))
        out = tmp_path / key
        code, stdout, err = run(capsys, [*base, "--config", str(cfg), "--out", str(out)])
        assert code == 2 and stdout == ""
        assert err == f"error: {cfg}: unknown config key {key!r} for generate\n"
        assert not out.exists()


def test_unknown_subcommand(capsys):
    assert main(["transmogrify"]) == 2
    capsys.readouterr()
    assert main([]) == 2


def test_generate_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": 8, "cols": 5, "density-a": 0.5,
                               "bounded": True, "count": 2, "seed": 3}))
    out1 = tmp_path / "from-config"
    code, _, _ = run(capsys, ["generate", "--family", "lp",
                              "--config", str(cfg), "--out", str(out1)])
    assert code == 0
    inst, _ = load_instance(out1 / load_manifest(out1 / "manifest.json")[0]["path"])
    assert inst.n == 5 and inst.m == 8 + 2 * 5
    out2 = tmp_path / "flag-wins"
    code, _, _ = run(capsys, ["generate", "--family", "lp", "--config", str(cfg),
                              "--cols", "3", "--out", str(out2)])
    assert code == 0
    inst, _ = load_instance(out2 / load_manifest(out2 / "manifest.json")[0]["path"])
    assert inst.n == 3


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zzz": 1}))
    code, _, err = run(capsys, ["generate", "--family", "lp", "--count", "1",
                                "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "zzz" in err


@pytest.mark.parametrize("command, doc, key", [
    (["generate", "--family", "lp"], {"count": 2.5}, "count"),
    (["generate", "--family", "lp"], {"count": True}, "count"),
    (["generate", "--family", "lp", "--count", "1"], {"solve": "no"}, "solve"),
    (["generate", "--count", "1"], {"family": "zzz"}, "family"),
    (["verify"], {"manifest": 5}, "manifest"),
], ids=["float-count", "bool-count", "string-switch", "family-choice", "int-manifest"])
def test_config_value_types_checked(tmp_path, capsys, command, doc, key):
    """A config value must have its flag's JSON type; before, 2.5, true and
    5 crashed with a traceback and "no" switched --solve on."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "x"
    argv = [*command, "--config", str(cfg)]
    if command[0] == "generate":
        argv += ["--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {cfg}: config key {key!r} must be ")
    assert not out.exists()


def test_config_number_writes_what_the_flag_writes(tmp_path, capsys):
    """An integer config value for a float flag is parsed as the flag
    parses it; before, {"density-a": 1} recorded density_a as 1, not 1.0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"density-a": 1}))
    base = ["generate", "--family", "lp", "--rows", "3", "--cols", "2", "--count", "1"]
    for sub, extra in (("config", ["--config", str(cfg)]), ("flag", ["--density-a", "1"])):
        code, _, _ = run(capsys, [*base, *extra, "--out", str(tmp_path / sub)])
        assert code == 0
    assert ((tmp_path / "config" / "lp_00000.json").read_bytes()
            == (tmp_path / "flag" / "lp_00000.json").read_bytes())


def test_jobs_pool_writes_the_serial_bytes(tmp_path, capsys):
    """`generate --solve` and `solve` in a pool of two workers write the
    files and manifests that one process writes."""
    for jobs in ("1", "2"):
        gen, sol = tmp_path / f"gen{jobs}", tmp_path / f"sol{jobs}"
        code, _, _ = run(capsys, GEN_LP + [
            "--count", "6", "--seed", "7", "--solve", "--jobs", jobs, "--out", str(gen)])
        assert code == 0
        code, _, _ = run(capsys, [
            "solve", "--manifest", str(gen / "manifest.json"), "--jobs", jobs, "--out", str(sol)])
        assert code == 0
    for stage in ("gen", "sol"):
        one, two = tmp_path / f"{stage}1", tmp_path / f"{stage}2"
        names = sorted(p.name for p in one.iterdir())
        assert len(names) == 7 and "manifest.json" in names
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


@pytest.mark.parametrize("source", ["flag", "config"])
def test_jobs_below_one_exit_2_before_writing(tmp_path, capsys, source):
    corpus = gen_corpus(tmp_path, capsys, count=2, solve=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 0}))
    jobs = ["--jobs", "0"] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "out"
    for command in (GEN_LP + ["--count", "2", "--solve"],
                    ["solve", "--manifest", str(corpus / "manifest.json")]):
        code, stdout, err = run(capsys, [*command, *jobs, "--out", str(out)])
        assert code == 2 and stdout == ""
        assert err == "error: --jobs must be at least 1, got 0\n"
        assert not out.exists()


# -------------------------------------------------------------------- augment

def test_augment_ops_none_copies(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=3)
    out = tmp_path / "aug"
    code, stdout, _ = run(capsys, [
        "augment", "--manifest", str(corpus / "manifest.json"),
        "--ops", "none", "--per-instance", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    entries = load_manifest(out / "manifest.json")
    assert len(entries) == 6
    src, _ = load_instance(corpus / "lp_00000.json")
    copy, sol = load_instance(out / "lp_00000_aug00.json")
    assert copy.data_equal(src)
    assert sol is not None


def test_augment_outputs_pass_verify(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=4)
    out = tmp_path / "aug"
    code, _, _ = run(capsys, [
        "augment", "--manifest", str(corpus / "manifest.json"),
        "--ops", "scale-vars:1.0,scale-cons:1.0", "--per-instance", "3",
        "--seed", "5", "--out", str(out)])
    assert code == 0
    entries = load_manifest(out / "manifest.json")
    assert len(entries) == 12
    assert all(e["labeled"] for e in entries)
    code, stdout, _ = run(capsys, ["verify", "--manifest", str(out / "manifest.json")])
    assert code == 0


def test_augment_unlabeled_solution_dependent_exit_4(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=2, solve=False)
    code, _, err = run(capsys, [
        "augment", "--manifest", str(corpus / "manifest.json"),
        "--ops", "drop-vars:0.9", "--out", str(tmp_path / "aug")])
    assert code == 4
    assert "drop-vars" in err


def test_augment_views_on_unlabeled(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=3, solve=False)
    out = tmp_path / "views"
    code, _, _ = run(capsys, [
        "augment", "--manifest", str(corpus / "manifest.json"),
        "--views", "2", "--seed", "9", "--out", str(out)])
    assert code == 0
    entries = load_manifest(out / "manifest.json")
    assert len(entries) == 6
    assert all(not e["labeled"] for e in entries)
    assert (out / "lp_00001_view01.json").exists()
    inst, sol = load_instance(out / "lp_00001_view01.json")
    assert sol is None


def test_augment_views_reject_solution_dependent_ops(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=2, solve=False)
    code, _, err = run(capsys, [
        "augment", "--manifest", str(corpus / "manifest.json"),
        "--views", "2", "--ops", "drop-vars:0.5", "--out", str(tmp_path / "v")])
    assert code == 4
    assert "drop-vars" in err


def test_augment_bad_ops_spec(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=2, solve=False)
    code, _, _ = run(capsys, [
        "augment", "--manifest", str(corpus / "manifest.json"),
        "--ops", "warp-speed:1.0", "--out", str(tmp_path / "aug")])
    assert code == 2


def test_augment_deterministic(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=3)
    outs = []
    for sub in ("a1", "a2"):
        out = tmp_path / sub
        code, _, _ = run(capsys, [
            "augment", "--manifest", str(corpus / "manifest.json"),
            "--per-instance", "2", "--seed", "3", "--out", str(out)])
        assert code == 0
        outs.append(out)
    for name in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


PINNED_GENERATE = {
    "qp": ["generate", "--family", "qp", "--rows", "12", "--cols", "10",
           "--density-a", "0.3", "--density-q", "0.3"],
    "lp": ["generate", "--family", "lp", "--rows", "12", "--cols", "10",
           "--density-a", "0.3", "--bounded", "--slack-noise", "4.0"],
}

# sha256 of every file the runs in test_augment_bytes_pinned write, recorded
# with the per-variable add-vars loop; the views and add-vars runs sample
# add-vars on QPs and LPs, and the add-vars runs map the solution through
# every record.  The combo entries, recorded while add_constraints still
# built its rows through scipy, map it through drop-cons, scale-cons,
# scale-vars and add-cons.  The instance files were re-pinned once when
# coordinates became packed keys, and once when they became packed gaps and
# the generator witness a packed float string: each time the files written
# before load to the same arrays, bit for bit, and the manifests did not
# change.  The labeled qp_addvars and qp_combo files were re-pinned once
# more when the positive definite polish stopped factoring the full KKT,
# and once more when the solver's Cholesky factors and triangular solves
# became numpy's own: each time their labels moved in the last bits, and
# every LP, unlabeled and manifest entry stayed as it was.  The labeled
# lp_addvars and lp_combo files were re-pinned once when LPs came to polish
# on the Schur complement of a shifted empty Q instead of a dense LU of the
# full KKT: their labels moved in the last bits (objective by at most
# 2.1e-16 relative), and every QP, unlabeled and manifest entry stayed.
# Every instance file was re-pinned once more when the generators came to
# build Q as D^1/2 (I + S) D^1/2 and to sum b without BLAS, and add-cons to
# draw its rows and weights once per call: each QP's data changed, each LP's
# b moved in its last bits, and the manifests stayed.
PINNED_AUGMENT_SHA256 = {
    "qp_views/manifest.json":
        "e1250be290533f640039da22d8df0ee981f63dd4bba8aa3f6236cd5a7ceedb08",
    "qp_views/qp_00000_view00.json":
        "42c9e35406ab768ae47369a7d09477167e9731eb9155f8e1a80adc8ede9819d1",
    "qp_views/qp_00000_view01.json":
        "7cf258a140b54ed5ad843675a631f17e47babb81ab60acd0fe823740d7f18bd4",
    "qp_views/qp_00000_view02.json":
        "deef93d1acf151c1d00f8f9f04c8a0a64b7979d682f304d1df0a6d9122adb493",
    "qp_views/qp_00000_view03.json":
        "b5eb23e9802ad8a0f08e14b06d24e9f5f6f9d488dc7e0f22db8d286412349dc5",
    "qp_views/qp_00001_view00.json":
        "06143c362b42a3b7fb67f9091c11335deb097d0d92573e88403db516b47117a1",
    "qp_views/qp_00001_view01.json":
        "c9c3baa58944b1e4763adece39a212a9d11388b5ac4b143b5fb7310f8ad5dff5",
    "qp_views/qp_00001_view02.json":
        "a2657d86df33fdd367ce1ba19e28591f025e8d07e834da35d7aebc6ba0039e38",
    "qp_views/qp_00001_view03.json":
        "457a8886d427c7a02924508a5c3e2fa9a04c8f828cc96a7a27ae15482061617b",
    "qp_addvars/manifest.json":
        "6559b28dcf5019d340878c94dfa45047bbeb8edc6a1b512fe03130ffa83785ff",
    "qp_addvars/qp_00000_aug00.json":
        "530ba633276e77cf38519a84530c30c420f18ae2ad7029b4e85cf3186c80ed1b",
    "qp_addvars/qp_00000_aug01.json":
        "a9555faf4827e9202b9eaec680182567c809126dcc982e057a81434fa7402f61",
    "qp_addvars/qp_00001_aug00.json":
        "58a943616f12258c03544c4813d85a5d1fe81ba4ab4ed10d131217db60d35e09",
    "qp_addvars/qp_00001_aug01.json":
        "9f2d85cd6016477f9ebd4ced1506c8de29fa08ef442d3599b8cd73c9bfdbf4c1",
    "lp_views/lp_00000_view00.json":
        "a1e832c9dbeddb7309a37cfd7117d3daad63b2d770d55b9edafbe9ff958633d3",
    "lp_views/lp_00000_view01.json":
        "bc61698e7e8fd53ba09c0d196b8955f451e8e4fc4116c7fd2014fe5a34a1d96c",
    "lp_views/lp_00000_view02.json":
        "ee178644d30f996ad5a9253bc44ebe4819d60de835b31fec426919565ae3b9e3",
    "lp_views/lp_00000_view03.json":
        "6e5b163694e6aaed21c276dbedea5a1de0ca17afec66a4d54c2ffe06819fd6c5",
    "lp_views/lp_00001_view00.json":
        "9975ee6ad9996511478ddd8de0cb55c8fc45ca6127474a16df3e930e8b35005a",
    "lp_views/lp_00001_view01.json":
        "611872aa1feff863a7d21e7145376e129f42f7d6e3f06f13232770b18d1a9e30",
    "lp_views/lp_00001_view02.json":
        "3ab160c92b3184986b78be0785b3eb97f6f0706f4a86a459c79836bbb2557059",
    "lp_views/lp_00001_view03.json":
        "7877fe3852542a982e1c5732f521746b6089f5f67012297255e0c7fe4f184700",
    "lp_views/manifest.json":
        "b775bc99908590454554afd00c5ca13bd2f8f9c51d73f4244db1d2451b7dbb3c",
    "lp_addvars/lp_00000_aug00.json":
        "07687602d83ec06a41451740632e8c4154b0c2d872d3d2c9f35332e80c16581f",
    "lp_addvars/lp_00000_aug01.json":
        "93726932399c3b91b1af14774f08acb1b7f64fe8ce7c4c76def009a83e93f893",
    "lp_addvars/lp_00001_aug00.json":
        "72080f6a3576d0f5bc05cb1b075ddb264a3287385193eacaa673f47801439001",
    "lp_addvars/lp_00001_aug01.json":
        "1b0c7cd3477ccdfd3d317a51e600a1dae6d1b6ecbcda7b2edf2c01da01bd1f84",
    "lp_addvars/manifest.json":
        "f5624d42e239a20c5b0de1fa48e3dba2befdb348bac7214fbdb4fa5e7967a75b",
    "lp_combo/lp_00000_aug00.json":
        "803abca7f9b2fb46e99fb701416316f35259932954716a3d42675e47b8463044",
    "lp_combo/lp_00000_aug01.json":
        "e2cab7a171a645a14c2da8a7cf3c465d2a72112f995b63f7136d80c683dcdad5",
    "lp_combo/lp_00001_aug00.json":
        "d664eb0e08c503efe1e23a40648bab2b1121d6aff0ae350bc5305aaf37a28a86",
    "lp_combo/lp_00001_aug01.json":
        "06ab089d6b7f4814aaa8e73402b5ed60ca26723c928630b164b40c1b97da90bd",
    "lp_combo/manifest.json":
        "f5624d42e239a20c5b0de1fa48e3dba2befdb348bac7214fbdb4fa5e7967a75b",
    "qp_combo/manifest.json":
        "6559b28dcf5019d340878c94dfa45047bbeb8edc6a1b512fe03130ffa83785ff",
    "qp_combo/qp_00000_aug00.json":
        "1a5f530a8a4706a4b7e3053d9b89d227db85449062b849f21bf6fdfeadafd599",
    "qp_combo/qp_00000_aug01.json":
        "6fbf0ffafe5e975a9a8e2d80e40499d0df95a75eb6667d0e0fee35d5e8516ac6",
    "qp_combo/qp_00001_aug00.json":
        "2b5d7bf4ed70d657421e89ce18a78963bb995edcd9313dfcae7a60f1988126f0",
    "qp_combo/qp_00001_aug01.json":
        "32a721135f88fca44f5c3f03db0a949a81105036eb8cb81fe8efcda486c9f99a",
}


def test_augment_bytes_pinned(tmp_path, capsys):
    """A change to augmentation's arithmetic or draw order shows here as a
    changed file, even when every other test still passes."""
    digests = {}
    for family, gen in PINNED_GENERATE.items():
        corpus = tmp_path / family
        code, _, _ = run(capsys, gen + ["--count", "2", "--seed", "11", "--solve",
                                        "--out", str(corpus)])
        assert code == 0
        manifest = str(corpus / "manifest.json")
        for sub, args in (("views", ["--views", "4"]),
                          ("addvars", ["--ops", "add-vars:0.8", "--per-instance", "2"]),
                          ("combo", ["--per-instance", "2"])):
            out = tmp_path / f"{family}_{sub}"
            code, _, _ = run(capsys, ["augment", "--manifest", manifest, *args,
                                      "--seed", "3", "--out", str(out)])
            assert code == 0
            for path in out.iterdir():
                digests[f"{out.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PINNED_AUGMENT_SHA256


# sha256 of every file a labeled drop-vars run writes, recorded while
# apply_policy still chose its ops through an if/elif chain: five of the six
# copies drop variables, two of them then add one through add-vars; re-pinned
# once when LPs came to polish on the Schur complement of a shifted empty Q
# instead of a dense LU of the full KKT, which moved every label in its last
# bits (objective by at most 2.1e-16 relative), the manifest staying; and
# re-pinned once when the generators came to sum b without BLAS, which moved
# each LP's b in its last bits, the manifest staying
PINNED_DROP_VARS_SHA256 = {
    "lp_00000_aug00.json": "68d4b7f00ca3476eb0bd70b328753cc8d545dbb91d04c53ea173adcf2040c555",
    "lp_00000_aug01.json": "05a15ebcc2324bf827d79ea84dd6baf9b2fb5a10034286d4eb9199be47c507ab",
    "lp_00000_aug02.json": "d3e6eec5ff9c30887474e74e445c097003dbb6260b973f42c601747fa89971df",
    "lp_00001_aug00.json": "eb5d028ae979838295c1432ae6cf40b69247de1fdd82f49eab175922ce2341b2",
    "lp_00001_aug01.json": "3d35d7d53b852b1615f183cfa9558f52cdca4e013959fe69bb6fcf8e40517728",
    "lp_00001_aug02.json": "84d0020e816e6272fcd05a52d55bfc049e7fa7f934ddeba10efea501f7328acc",
    "manifest.json": "d019f860c428fd2dc9c44f27e3574c6dcaebdcda450cd7f453e91730d733a908",
}


def test_augment_drop_vars_bytes_pinned(tmp_path, capsys):
    corpus = tmp_path / "lp"
    code, _, _ = run(capsys, PINNED_GENERATE["lp"] + ["--count", "2", "--seed", "11",
                                                      "--solve", "--out", str(corpus)])
    assert code == 0
    out = tmp_path / "dropped"
    code, _, _ = run(capsys, ["augment", "--manifest", str(corpus / "manifest.json"),
                              "--ops", "drop-vars:3.0,add-vars:0.3", "--per-instance", "3",
                              "--seed", "3", "--out", str(out)])
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == PINNED_DROP_VARS_SHA256
    code, _, _ = run(capsys, ["verify", "--manifest", str(out / "manifest.json")])
    assert code == 0


@pytest.mark.parametrize("spec, extra", [
    ("bogus:1", []),
    ("scale-vars:-1", []),
    ("scale-vars:nan", []),
    ("scale-vars:1", ["--ops-per-copy", "0"]),
])
@pytest.mark.parametrize("count", [0, 2])
def test_augment_bad_options_exit_2_before_writing(tmp_path, capsys, spec, extra, count):
    corpus = gen_corpus(tmp_path, capsys, count=count, solve=False)
    out = tmp_path / "aug"
    code, _, err = run(capsys, ["augment", "--manifest", str(corpus / "manifest.json"),
                                "--ops", spec, *extra, "--out", str(out)])
    assert code == 2 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--views", "--per-instance", "--ops-per-copy"])
def test_augment_counts_below_one_name_their_flag(tmp_path, capsys, flag):
    corpus = gen_corpus(tmp_path, capsys, count=2, solve=False)
    out = tmp_path / "aug"
    code, stdout, err = run(capsys, ["augment", "--manifest", str(corpus / "manifest.json"),
                                     flag, "0", "--out", str(out)])
    assert code == 2 and stdout == ""
    assert err == f"error: {flag} must be at least 1\n"
    assert not out.exists()


# ---------------------------------------------------------------- solve/verify

def test_solve_labels_corpus(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=4, solve=False)
    out = tmp_path / "labeled"
    code, stdout, _ = run(capsys, [
        "solve", "--manifest", str(corpus / "manifest.json"), "--out", str(out)])
    assert code == 0
    entries = load_manifest(out / "manifest.json")
    assert all(e["labeled"] and e["solver_status"] == "ok" for e in entries)
    code, _, _ = run(capsys, ["verify", "--manifest", str(out / "manifest.json")])
    assert code == 0


def test_lp_round_trip_resolves_every_copy_to_its_mapped_objective(tmp_path, capsys):
    """Bounded 100x100 LPs, labeled, augmented once each with the combo
    table and re-solved: every re-solve is ok and within 1e-6 relative of
    the objective the augmenter mapped onto the copy.  Per-index seeds make
    lp_00001_aug00 and lp_00004_aug00 the copies of the lp-label benchmark
    workload (seed 0) that ended unconverged while LPs polished on a dense
    LU of the full KKT."""
    lab, aug, sol = (tmp_path / sub for sub in ("lab", "aug", "sol"))
    for argv in (["generate", "--family", "lp", "--rows", "100", "--cols", "100",
                  "--density-a", "0.05", "--bounded", "--count", "5", "--seed", "0",
                  "--solve", "--out", str(lab)],
                 ["augment", "--manifest", str(lab / "manifest.json"), "--seed", "1",
                  "--per-instance", "1", "--out", str(aug)],
                 ["solve", "--manifest", str(aug / "manifest.json"), "--out", str(sol)]):
        code, _, _ = run(capsys, argv)
        assert code == 0
    entries = load_manifest(sol / "manifest.json")
    assert len(entries) == 5
    for entry in entries:
        assert entry["solver_status"] == "ok", entry["path"]
        _, mapped = load_instance(aug / entry["path"])
        _, resolved = load_instance(sol / entry["path"])
        assert resolved.objective == pytest.approx(mapped.objective, rel=1e-6)


def test_solve_budget_exit_3(tmp_path, capsys):
    out = tmp_path / "ub"
    code, _, _ = run(capsys, [
        "generate", "--family", "lp", "--rows", "2", "--cols", "3",
        "--density-a", "1.0", "--count", "3", "--seed", "0", "--out", str(out)])
    assert code == 0
    code, _, err = run(capsys, [
        "solve", "--manifest", str(out / "manifest.json"),
        "--out", str(tmp_path / "lab"), "--failure-budget", "0.0"])
    assert code == 3
    assert err == "solver failed on 3/3 instances, over budget 0.0\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_solve_names_the_file_whose_q_is_refused(tmp_path, capsys, jobs):
    """An indefinite Q is refused with exit 2, and the error names the file
    it was read from, as a load error does, in one process and in a pool."""
    box = np.vstack([np.eye(2), -np.eye(2)])
    entries = []
    for name, q in (("convex.json", np.eye(2)), ("saddle.json", [[0.0, 1.0], [1.0, 0.0]])):
        save_instance(tmp_path / name, make_instance(q, box, np.ones(4), [1.0, -1.0]))
        entries.append({"path": name, "split": "train", "family": "qp", "seed": 0,
                        "labeled": False, "solver_status": "not_requested"})
    save_manifest(tmp_path / "manifest.json", entries)
    code, _, err = run(capsys, ["solve", "--manifest", str(tmp_path / "manifest.json"),
                                "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert code == 2
    assert err == f"error: {tmp_path / 'saddle.json'}: quadratic term must be positive semidefinite\n"


@pytest.mark.parametrize("via, budget", [
    ("flag", "-0.5"), ("flag", "1.5"), ("flag", "nan"), ("flag", "inf"),
    # a config file cannot hold nan or inf: its reader refuses them
    ("config", "-0.5"), ("config", "1.5"),
])
def test_failure_budget_out_of_range_exit_2_before_writing(tmp_path, capsys, via, budget):
    corpus = gen_corpus(tmp_path, capsys, count=2, solve=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"failure-budget": {budget}}}')
    option = ["--failure-budget", budget] if via == "flag" else ["--config", str(cfg)]
    for argv in (GEN_LP + ["--count", "3", "--solve", "--out", str(tmp_path / "gen")],
                 ["solve", "--manifest", str(corpus / "manifest.json"),
                  "--out", str(tmp_path / "lab")]):
        code, _, err = run(capsys, argv + option)
        assert code == 2, argv
        assert "failure-budget" in err
        assert not Path(argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_tol_out_of_range_exit_2(tmp_path, capsys, tol):
    corpus = gen_corpus(tmp_path, capsys, count=2)
    code, out, err = run(capsys, ["verify", "--manifest", str(corpus / "manifest.json"),
                                  "--tol", tol])
    assert code == 2 and out == ""
    assert "--tol" in err


def test_verify_exit_5_on_corruption(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=3)
    victim = corpus / "lp_00001.json"
    doc = json.loads(victim.read_text())
    doc["solution"]["lam"] = repacked(doc["solution"]["lam"], lambda lam: [-abs(v) - 1.0 for v in lam])
    victim.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, ["verify", "--manifest", str(corpus / "manifest.json")])
    assert code == 5
    report = json.loads(stdout)
    assert "lp_00001.json" in report["failing"]
    assert report["worst"]["dual_violation"] >= 1.0


def test_verify_requires_labels(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=2, solve=False)
    code, _, _ = run(capsys, ["verify", "--manifest", str(corpus / "manifest.json")])
    assert code == 2


# ------------------------------------------------------------- heuristic-eval

def test_heuristic_eval_reports_buckets(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=6)
    code, stdout, _ = run(capsys, [
        "heuristic-eval", "--manifest", str(corpus / "manifest.json")])
    assert code == 0
    report = json.loads(stdout)
    assert 0.0 <= report["overall"]["mean"] <= 1.0
    assert report["overall"]["count"] >= 1
    assert report["buckets"]


def test_heuristic_eval_all_inactive_is_perfect(tmp_path):
    inst = make_instance(np.eye(2), np.eye(2), [1.0, 1.0], [0.0, 0.0], name="interior")
    sol = Solution.from_primal_dual(inst, np.zeros(2), np.zeros(2))
    ddir = tmp_path / "ds"
    ddir.mkdir()
    save_instance(ddir / "interior.json", inst, sol)
    save_manifest(ddir / "manifest.json", [
        {"path": "interior.json", "split": "train", "family": "custom",
         "seed": 0, "labeled": True, "solver_status": "ok"}])
    code = main(["heuristic-eval", "--manifest", str(ddir / "manifest.json")])
    assert code == 0


def test_heuristic_eval_all_inactive_accuracy(tmp_path, capsys):
    inst = make_instance(np.eye(2), np.eye(2), [1.0, 1.0], [0.0, 0.0], name="interior")
    sol = Solution.from_primal_dual(inst, np.zeros(2), np.zeros(2))
    ddir = tmp_path / "ds"
    ddir.mkdir()
    save_instance(ddir / "interior.json", inst, sol)
    save_manifest(ddir / "manifest.json", [
        {"path": "interior.json", "split": "train", "family": "custom",
         "seed": 0, "labeled": True, "solver_status": "ok"}])
    code, stdout, _ = run(capsys, [
        "heuristic-eval", "--manifest", str(ddir / "manifest.json")])
    assert code == 0
    assert json.loads(stdout)["overall"]["mean"] == 1.0
    # a NaN tolerance would call every row inactive, on any instance
    code, stdout, err = run(capsys, [
        "heuristic-eval", "--manifest", str(ddir / "manifest.json"), "--active-tol", "nan"])
    assert code == 2 and stdout == ""
    assert "tol must be nonnegative" in err


# ---------------------------------------------------------------------- split

def test_split_reassigns_deterministically(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=20, solve=False)
    manifest = corpus / "manifest.json"
    code, _, _ = run(capsys, ["split", "--manifest", str(manifest), "--seed", "42"])
    assert code == 0
    first = manifest.read_bytes()
    splits = [e["split"] for e in load_manifest(manifest)]
    assert splits.count("val") == 2 and splits.count("test") == 2
    code, _, _ = run(capsys, ["split", "--manifest", str(manifest), "--seed", "42"])
    assert code == 0
    assert manifest.read_bytes() == first
    code, _, _ = run(capsys, ["split", "--manifest", str(manifest), "--seed", "43"])
    assert code == 0
    assert manifest.read_bytes() != first


def test_split_reproduces_generate_split(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, capsys, count=30, solve=False, seed=11)
    manifest = corpus / "manifest.json"
    out = tmp_path / "resplit.json"
    code, _, _ = run(capsys, [
        "split", "--manifest", str(manifest), "--seed", "11", "--out", str(out)])
    assert code == 0
    generated = [e["split"] for e in load_manifest(manifest)]
    assert generated.count("val") == 3 and generated.count("test") == 3
    assert [e["split"] for e in load_manifest(out)] == generated
    assert out.read_bytes() == manifest.read_bytes()


# ---------------------------------------------------------------------- graph

def test_graph_export(tmp_path, capsys):
    from qpaug.fileio import load_graph

    corpus = gen_corpus(tmp_path, capsys, count=3, solve=False)
    out = tmp_path / "graphs"
    code, stdout, _ = run(capsys, [
        "graph", "--manifest", str(corpus / "manifest.json"), "--out", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["lp_00000.graph.json", "lp_00001.graph.json", "lp_00002.graph.json"]
    g = load_graph(out / files[0])
    assert g.n_var_nodes == 4
    assert g.n_con_nodes == 8 + 2 * 4


# -------------------------------------------------------------------- metrics

def metrics_file(tmp_path, pairs):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    return str(path)


def test_metrics_zero_when_equal(tmp_path, capsys):
    code, stdout, _ = run(capsys, [
        "metrics", "--pairs", metrics_file(tmp_path, [[-1.5, -1.5], [2.0, 2.0]])])
    assert code == 0
    assert json.loads(stdout)["mean_relative_objective_error_pct"] == 0.0


def test_metrics_single_pair(tmp_path, capsys):
    code, stdout, _ = run(capsys, [
        "metrics", "--pairs", metrics_file(tmp_path, [[-1.485, -1.5]])])
    assert code == 0
    got = json.loads(stdout)["mean_relative_objective_error_pct"]
    assert got == pytest.approx(1.0, abs=1e-9)


def test_metrics_mean(tmp_path, capsys):
    code, stdout, _ = run(capsys, [
        "metrics", "--pairs", metrics_file(tmp_path, [[2.0, 1.0], [0.5, 1.0]])])
    assert code == 0
    assert json.loads(stdout)["mean_relative_objective_error_pct"] == 75.0


def test_metrics_rejects_zero_reference(tmp_path, capsys):
    code, _, err = run(capsys, [
        "metrics", "--pairs", metrics_file(tmp_path, [[1.0, 1.0], [0.5, 0.0]])])
    assert code == 2
    assert "1" in err


@pytest.mark.parametrize("pairs", [
    [[True, 1.0], ["2.0", 4]],
    [[1.0, 1.0], [2.0, False]],
    [[1.0, "1.0"]],
], ids=["bool-and-string", "bool-reference", "string-reference"])
def test_metrics_rejects_non_numbers(tmp_path, capsys, pairs):
    """Booleans and strings are not objective values; before, true read as
    1 and "2.0" as 2.0, and the first case reported 25%."""
    code, stdout, err = run(capsys, ["metrics", "--pairs", metrics_file(tmp_path, pairs)])
    assert code == 2 and stdout == ""
    assert "JSON numbers only" in err


# ------------------------------------------------------- malformed manifests

MANIFEST_COMMANDS = {
    "solve": ["--out", "OUT"],
    "augment": ["--out", "OUT"],
    "verify": [],
    "heuristic-eval": [],
    "split": [],
    "graph": ["--out", "OUT"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
@pytest.mark.parametrize("content", [
    b'[{"path": "e.json"}]',  # missing keys
    b'[["e.json", "train"]]',  # entry is not an object
    b'[{"path": "\xff.json", "split": "train"}]',  # not UTF-8
], ids=["missing-keys", "list-entry", "not-utf8"])
def test_malformed_manifest_exits_2(tmp_path, capsys, command, content):
    inst = make_instance(np.eye(2), np.eye(2), [1.0, 1.0], [0.0, 0.0], name="e")
    sol = Solution.from_primal_dual(inst, np.zeros(2), np.zeros(2))
    save_instance(tmp_path / "e.json", inst, sol)
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(content)
    extra = [str(tmp_path / "out") if a == "OUT" else a for a in MANIFEST_COMMANDS[command]]
    code, _, err = run(capsys, [command, "--manifest", str(manifest), *extra])
    assert code == 2
    assert err.startswith("error:") and "manifest.json" in err


# ------------------------------------------------------ malformed instances

@pytest.mark.parametrize("command", ["graph", "solve", "augment"])
@pytest.mark.parametrize("key, value", [
    ("indices", [True]), ("indices", [-3, 2, 3]), ("indices", [0, 2.7, 3]),
    ("values", ["0.5"]),
], ids=["bool-index", "negative-index", "fractional-index", "string-value"])
def test_malformed_solution_map_exits_2(tmp_path, capsys, command, key, value):
    save_instance(tmp_path / "e.json", *labeled_e1())
    doc = json.loads((tmp_path / "e.json").read_text())
    doc["provenance"][3]["solution_map"][key] = value  # add_constraints' extended_with_zeros
    (tmp_path / "e.json").write_text(json.dumps(doc))
    manifest = tmp_path / "manifest.json"
    save_manifest(manifest, [{"path": "e.json", "split": "train", "family": "qp",
                              "seed": 0, "labeled": True, "solver_status": "ok"}])
    extra = [str(tmp_path / "out") if a == "OUT" else a for a in MANIFEST_COMMANDS[command]]
    code, _, err = run(capsys, [command, "--manifest", str(manifest), *extra])
    assert code == 2
    assert err.startswith("error:") and "e.json" in err and "solution_map" in err


@pytest.mark.parametrize("command", ["graph", "solve", "verify"])
@pytest.mark.parametrize("case", [*sorted(MALFORMED_NUMBERS), "e1_labeled_keys_v4.json"])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, case):
    """Each malformed field, and a file in an earlier form (a refusal
    fixture), exits 2 naming the file."""
    if case in MALFORMED_NUMBERS:
        malformed_instance_file(tmp_path / "e.json", case)
    else:
        shutil.copy(DATA / case, tmp_path / "e.json")
    manifest = tmp_path / "manifest.json"
    save_manifest(manifest, [{"path": "e.json", "split": "train", "family": "qp",
                              "seed": 0, "labeled": True, "solver_status": "ok"}])
    extra = [str(tmp_path / "out") if a == "OUT" else a for a in MANIFEST_COMMANDS[command]]
    code, _, err = run(capsys, [command, "--manifest", str(manifest), *extra])
    assert code == 2
    assert err.startswith("error:") and "e.json" in err
    assert err.rstrip().endswith("regenerate it from its seeds")


# ------------------------------------------------------ colliding output names

# solve names each output after the entry's file name, graph and augment
# after its stem; solve also writes manifest.json next to its outputs
@pytest.mark.parametrize("command, second, collides", [
    ("solve", "b/x.json", True), ("graph", "b/x.json", True), ("augment", "b/x.json", True),
    ("solve", "b/x.txt", False), ("graph", "b/x.txt", True), ("augment", "b/x.txt", True),
    ("solve", "b/manifest.json", True), ("graph", "b/manifest.json", False),
    ("augment", "b/manifest.json", False),
])
def test_colliding_output_names_exit_2(tmp_path, capsys, command, second, collides):
    """Entries a/x.json and `second` whose outputs would share a file name
    are refused before any output is written."""
    corpus = gen_corpus(tmp_path, capsys, count=2)
    entries = load_manifest(corpus / "manifest.json")
    for e, path in zip(entries, ["a/x.json", second]):
        (corpus / path).parent.mkdir(exist_ok=True)
        (corpus / e["path"]).rename(corpus / path)
        e["path"] = path
    save_manifest(corpus / "manifest.json", entries)
    out = tmp_path / "out"
    code, _, err = run(capsys, [command, "--manifest", str(corpus / "manifest.json"),
                                "--out", str(out)])
    if not collides:
        assert code == 0
        return
    assert code == 2
    assert err.startswith("error:") and second in err and "share the output name" in err
    assert not out.exists()


# ------------------------------------------------------------- solver outcomes

def _stub_solver(status, real):
    """A stand-in for solve_splitting that gives `status`; "ok" solves."""
    from qpaug.solver import InfeasibleOrUnbounded, Unbounded, Unconverged

    def stub(inst, *args, **kwargs):
        if status == "ok":
            return real(inst, *args, **kwargs)
        if status == "kkt_check_failed":  # zero pair: stationarity is off by |c|
            return Solution.from_primal_dual(inst, np.zeros(inst.n), np.zeros(inst.m))
        if status == "unconverged":
            raise Unconverged("stub", None, None)
        raise {"unbounded": Unbounded,
               "infeasible_or_unbounded": InfeasibleOrUnbounded}[status]("stub")
    return stub


@pytest.mark.parametrize("status", [
    "ok", "kkt_check_failed", "unbounded", "infeasible_or_unbounded", "unconverged"])
def test_solver_outcomes_label_alike(tmp_path, capsys, monkeypatch, status):
    """Each solver outcome gives one solver_status through gen_dataset,
    generate --solve and solve; a failure leaves its file unlabeled and
    trips the default failure budget (exit 3)."""
    from qpaug import generators

    monkeypatch.setattr(generators, "solve_splitting",
                        _stub_solver(status, generators.solve_splitting))
    direct = generators.gen_dataset(
        tmp_path / "direct", "lp", {"m": 8, "n": 4, "density_a": 0.5, "bounded": True,
                                    "slack_noise": 4.0}, count=2, seed=7, solve=True)
    unlabeled = gen_corpus(tmp_path, capsys, count=2, solve=False, sub="raw")
    expected = 0 if status == "ok" else 3
    for argv, out in [
        (GEN_LP + ["--count", "2", "--seed", "7", "--solve"], tmp_path / "gen"),
        (["solve", "--manifest", str(unlabeled / "manifest.json")], tmp_path / "sol"),
    ]:
        code, stdout, err = run(capsys, argv + ["--out", str(out)])
        assert code == expected
        assert json.loads(stdout)["statuses"] == {status: 2}
        if expected:
            assert err == "solver failed on 2/2 instances, over budget 0.1\n"
        entries = load_manifest(out / "manifest.json")
        assert [e["solver_status"] for e in entries] == [status, status]
        for e in entries:
            assert e["labeled"] == (status == "ok")
            assert (load_instance(out / e["path"])[1] is not None) == e["labeled"]
    assert [(e["solver_status"], e["labeled"]) for e in direct] == [(status, status == "ok")] * 2
