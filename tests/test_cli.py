"""Command surface: exit-code contract (0 ok, 2 usage, 3 solver budget,
4 policy/label mismatch, 5 verification failure), stdout JSON reports,
and pipeline byte determinism."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qpaug import Solution, SparseMatrix
from qpaug.cli import main
from qpaug.fileio import load_instance, load_manifest, save_instance, save_manifest

from conftest import MALFORMED_NUMBERS, make_instance, malformed_instance_file, repacked

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


def test_jobs_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QPAUG_JOBS", "2")
    out = gen_corpus(tmp_path, capsys, count=4, sub="par")
    assert len(load_manifest(out / "manifest.json")) == 4


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
# scale-vars and add-cons.
PINNED_AUGMENT_SHA256 = {
    "qp_views/manifest.json":
        "e1250be290533f640039da22d8df0ee981f63dd4bba8aa3f6236cd5a7ceedb08",
    "qp_views/qp_00000_view00.json":
        "b0f8f68716dae12dfd3899c98ced2a1eddb3cbe541b319663c067b3a5c29bbcf",
    "qp_views/qp_00000_view01.json":
        "668b201a69ffaf13a5faa0cae365bbd82b639f7cd3d3bd817a0ddf1bccaadf42",
    "qp_views/qp_00000_view02.json":
        "c42423b6107cefb3cc42e1e3f5625a85852eb239982c58f44fe1434bbb7295de",
    "qp_views/qp_00000_view03.json":
        "7235a9d99c85d3b37ce581816d12684bf4917fbd21ea2978fcec623d8bccdf18",
    "qp_views/qp_00001_view00.json":
        "2927801a8819ed9c93ba54dc4e21346dd311bbbb392acc09417c00c3d42d50a2",
    "qp_views/qp_00001_view01.json":
        "1ad2481a46a1850d29d3882c55e8f113c7f23436a0720968a0cc5a87428bda9e",
    "qp_views/qp_00001_view02.json":
        "7d1d967366543c06035d3388c5c0c84c63174d9a4ce23ba2efb19172991521a2",
    "qp_views/qp_00001_view03.json":
        "5d0f745788bc1ff752df2cbaf8307c616498b7449be9c460966e486aa9ba26fa",
    "qp_addvars/manifest.json":
        "6559b28dcf5019d340878c94dfa45047bbeb8edc6a1b512fe03130ffa83785ff",
    "qp_addvars/qp_00000_aug00.json":
        "ddeefc9263f06f19fd294f7cc7ef950182d78d95ffcb72a8a780564675c4fac1",
    "qp_addvars/qp_00000_aug01.json":
        "c65d742f0c55d22a0bad47a1fbcabf821d7b7b3a0eef96a9256a0e9e9ccf362b",
    "qp_addvars/qp_00001_aug00.json":
        "1c73146bdfe2ec8fe37d24e5f607742e131e7c759ba7b1a5b280f9af8d687668",
    "qp_addvars/qp_00001_aug01.json":
        "b847213aaffecca7da5848f96667ac3b6e42fddb0b5d5f4900eabea5b1a02e76",
    "lp_views/lp_00000_view00.json":
        "8ab48af8df3e3bdab5ac307373a2c108da121fca3d00111da568fa82a95e8275",
    "lp_views/lp_00000_view01.json":
        "c9b085252f3ededd735c3f90d14a782478c8aa8c87fae74d6c1300e5b7674509",
    "lp_views/lp_00000_view02.json":
        "be0fe044704f36ebda541c8ee0523644e7edb319dfd6067883b91042d9d7dc74",
    "lp_views/lp_00000_view03.json":
        "f1856d8b8d8410762c103a85049f5f0375e6d859cbbb738be843e8907f78615a",
    "lp_views/lp_00001_view00.json":
        "a05b9d2cba2e326e05c93d098cc4731067387ceac01b622392ebb9564ac41b60",
    "lp_views/lp_00001_view01.json":
        "357285113eaa7647fb822e7b1453fd13e1cea8079eae00945e508a674c745a3f",
    "lp_views/lp_00001_view02.json":
        "555e71dd2b413a2665009e08165253e11a39f02566d857b2c367ffbcda753a96",
    "lp_views/lp_00001_view03.json":
        "f3a4da100a33fedc10606f908cddf5ec337eb34f44261b089617b3f3a286e188",
    "lp_views/manifest.json":
        "b775bc99908590454554afd00c5ca13bd2f8f9c51d73f4244db1d2451b7dbb3c",
    "lp_addvars/lp_00000_aug00.json":
        "03e90931d38a09e69919ad5d82ed121a318d34e4da21383421192dc7e6676673",
    "lp_addvars/lp_00000_aug01.json":
        "cafc5e6eeb00687fd11e319bfea81d59302c5b02671e503003e41f3e947bc67a",
    "lp_addvars/lp_00001_aug00.json":
        "6c3d3195cd76013274e4475c1519ba9a12a74cca32342bea0b62901da62c32c6",
    "lp_addvars/lp_00001_aug01.json":
        "f5781eb798e4513bb45e6a668fb1341b3261ea83e110d75b7791e70b5dbaf81d",
    "lp_addvars/manifest.json":
        "f5624d42e239a20c5b0de1fa48e3dba2befdb348bac7214fbdb4fa5e7967a75b",
    "lp_combo/lp_00000_aug00.json":
        "31311fa76f0320b26233bf5d51e96d053f94a9b753c3ff0d31f419ed40409038",
    "lp_combo/lp_00000_aug01.json":
        "970ee77f9fa027761a8c52f0725c9c405e48e17f63fcf7feaa63c7af357ff47f",
    "lp_combo/lp_00001_aug00.json":
        "9854d99330608aa7be2df128f718fce14c4357f8413b41775051c61f6832bbcd",
    "lp_combo/lp_00001_aug01.json":
        "fc1e30c71150dae0ccd805fbc3a54d04dab2e7faaa9594adafb07bdccffb6bb4",
    "lp_combo/manifest.json":
        "f5624d42e239a20c5b0de1fa48e3dba2befdb348bac7214fbdb4fa5e7967a75b",
    "qp_combo/manifest.json":
        "6559b28dcf5019d340878c94dfa45047bbeb8edc6a1b512fe03130ffa83785ff",
    "qp_combo/qp_00000_aug00.json":
        "173cf45ee0192fc3fc415afa936803df9d0543c7dc34fd8b7db6a98dd06ec83f",
    "qp_combo/qp_00000_aug01.json":
        "ab8c4bf78f65d2e9818a3d74c84d48a71175b08c67896d27fce1a107963e5b31",
    "qp_combo/qp_00001_aug00.json":
        "b542be485e8d2773a2b02ef31d98e9d29caa6ded87fa7206e1c6695ab1578f27",
    "qp_combo/qp_00001_aug01.json":
        "c09017a39b9253363b1e46c19c4a95d5f952e59bf499038de865f52253da765a",
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
    doc = json.loads((Path(__file__).parent / "data" / "e1_dense_provenance_v2.json").read_text())
    doc["provenance"][1]["solution_map"][key] = value
    (tmp_path / "e.json").write_text(json.dumps(doc))
    manifest = tmp_path / "manifest.json"
    save_manifest(manifest, [{"path": "e.json", "split": "train", "family": "qp",
                              "seed": 0, "labeled": True, "solver_status": "ok"}])
    extra = [str(tmp_path / "out") if a == "OUT" else a for a in MANIFEST_COMMANDS[command]]
    code, _, err = run(capsys, [command, "--manifest", str(manifest), *extra])
    assert code == 2
    assert err.startswith("error:") and "e.json" in err and "solution_map" in err


@pytest.mark.parametrize("command", ["graph", "solve", "verify"])
@pytest.mark.parametrize("case", sorted(MALFORMED_NUMBERS))
def test_malformed_numbers_exit_2(tmp_path, capsys, command, case):
    malformed_instance_file(tmp_path / "e.json", case)
    manifest = tmp_path / "manifest.json"
    save_manifest(manifest, [{"path": "e.json", "split": "train", "family": "qp",
                              "seed": 0, "labeled": True, "solver_status": "ok"}])
    extra = [str(tmp_path / "out") if a == "OUT" else a for a in MANIFEST_COMMANDS[command]]
    code, _, err = run(capsys, [command, "--manifest", str(manifest), *extra])
    assert code == 2
    assert err.startswith("error:") and "e.json" in err


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
