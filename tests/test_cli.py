import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from paths import INSTANCES

from chancompat import analysis as an, channels as ch, cli, io, pipelines
from chancompat.cli import main
from chancompat.feasibility import CompositionConstraintSet, SolverConfig, Status, certificate_bound
from chancompat.linalg import frob


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_channel_file_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    c = ch.random_channel(2, 3, rng)
    # Negative zeros (the diagonal's imaginary parts) keep their sign.
    c.choi.imag[np.diag_indices(6)] = -0.0
    path = tmp_path / "c.json"
    io.save_channel(str(path), c, label="sample")
    loaded, kraus, label = io.load_channel(str(path))
    assert kraus is None
    assert label == "sample"
    for a, b in ((loaded.choi.real, c.choi.real), (loaded.choi.imag, c.choi.imag)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    # save -> load -> save is byte-identical
    path2 = tmp_path / "c2.json"
    io.save_channel(str(path2), loaded, label="sample")
    assert path.read_text() == path2.read_text()


def _per_entry_matrix_to_json(m):
    """The entry-by-entry encoding that matrix_to_json must reproduce."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


@pytest.mark.parametrize("side", [1, 2, 3, 16, 64])
def test_matrix_to_json_matches_per_entry_encoding(side):
    rng = np.random.default_rng(side)
    z = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    signed_zeros = np.zeros((side, side), dtype=complex)
    signed_zeros.real[::2] = -0.0
    signed_zeros.imag[:, ::2] = -0.0
    for m in (z, z.real, rng.integers(-3, 4, size=(side, side)), signed_zeros):
        assert json.dumps(io.matrix_to_json(m)) == json.dumps(_per_entry_matrix_to_json(m))
    assert "-0.0" in json.dumps(io.matrix_to_json(signed_zeros))


def test_kraus_file_roundtrip(tmp_path):
    k = ch.self_complementary_qubit(1, 0.3, 0.9)
    path = tmp_path / "k.json"
    io.save_channel(str(path), k)
    loaded, kraus, _ = io.load_channel(str(path))
    assert kraus is not None
    for a, b in zip(k.operators, kraus.operators):
        assert np.array_equal(a, b)
    assert frob(loaded.choi - ch.choi_from_kraus(k).choi) < 1e-12


def test_load_rejects_invalid_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(io.LoadError):
        io.load_channel(str(bad))
    bad.write_text(json.dumps({"dim_in": 2, "dim_out": 2}))
    with pytest.raises(io.LoadError):
        io.load_channel(str(bad))
    # non-CPTP choi is rejected with the violated bound reported
    bad.write_text(
        json.dumps(
            {
                "dim_in": 2,
                "dim_out": 2,
                "choi": [[[1.0, 0.0]] * 4] * 4,
            }
        )
    )
    with pytest.raises(io.LoadError):
        io.load_channel(str(bad))
    # Non-finite entries, entries that are not [re, im] pairs, ragged rows,
    # incomplete Kraus sets, a 'kraus' that is not a list, and JSON booleans
    # as dimensions or entries are load errors: every check exits 3 with no
    # report.
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    inf_kraus = [[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    nan_choi = [[[float("nan"), 0.0]] * 4] + [[[0.0, 0.0]] * 4] * 3
    triple = [[[1.0, 0.0, 5.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    # The identity channel with true for 1 and false for 0.
    bool_eye = [[[True, False], [0, 0]], [[0, 0], [True, False]]]
    bool_choi = [[[bool(x), False] for x in row] for row in ch.identity(2).choi.real.tolist()]
    # A CPTP Hermitian part plus an anti-Hermitian 0.3 at (0, 1): it used to
    # load, and then `check div` called it divisible by itself.
    skew = 0.5 * ch.identity(2).choi + 0.25 * np.eye(4)
    skew[0, 1], skew[1, 0] = 0.3, -0.3
    for doc, key in (
        ({"dim_in": 2, "dim_out": 2, "kraus": [inf_kraus]}, "kraus"),
        ({"dim_in": 2, "dim_out": 2, "choi": nan_choi}, "choi"),
        ({"dim_in": 2, "dim_out": 2, "kraus": [triple]}, "kraus"),
        ({"dim_in": 2, "dim_out": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0]]]]}, "kraus"),
        ({"dim_in": 2, "dim_out": 2, "kraus": [half]}, "kraus"),
        ({"dim_in": 2, "dim_out": 2, "kraus": [eye, half]}, "kraus"),
        ({"dim_in": 2, "dim_out": 2, "kraus": 5}, "kraus"),
        ({"dim_in": True, "dim_out": 2, "kraus": [[[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]}, "dim_in"),
        ({"dim_in": True, "dim_out": True, "choi": [[[1, 0]]]}, "dim_in"),
        ({"dim_in": 2, "dim_out": True, "choi": [[[1, 0]] * 2] * 2}, "dim_out"),
        ({"dim_in": 2, "dim_out": 2, "kraus": [bool_eye]}, "kraus"),
        ({"dim_in": 2, "dim_out": 2, "choi": bool_choi}, "choi"),
        ({"dim_in": 2, "dim_out": 2, "choi": io.matrix_to_json(skew)}, "choi"),
        ([], "channel document must be a json object"),
        ({"dim_in": 2, "dim_out": 2, "choi": []}, "choi: expected a non-empty 2-d array"),
    ):
        bad.write_text(json.dumps(doc))
        with pytest.raises(io.LoadError):
            io.load_channel(str(bad))
        for argv in (["check", "selfdeg", str(bad)], ["check", "compat", str(bad), str(bad)]):
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: "), err
            # The message names the file and the field at fault, not numpy's
            # internals.
            assert str(bad) in err, err
            assert key in err.lower(), err


def test_make_and_check_compat_identity(tmp_path, capsys):
    id_path = str(tmp_path / "id2.json")
    assert main(["make", "identity", "--dim", "2", "-o", id_path]) == 0
    capsys.readouterr()
    code, doc = run(capsys, "check", "compat", id_path, id_path)
    assert code == 1
    assert doc["status"] == "not-feasible-at-tolerance"
    assert "witness" not in doc
    # No-cloning is certified like every other not-feasible verdict.
    assert doc["stop_reason"] == "certificate"
    assert doc["certificate"]["residual_lower_bound"] >= 10 * doc["config"]["eps_feas"]
    assert doc["warnings"] == []


def test_check_div_identity_emits_identity_witness(tmp_path, capsys):
    id_path = str(tmp_path / "id2.json")
    main(["make", "identity", "--dim", "2", "-o", id_path])
    capsys.readouterr()
    code, doc = run(capsys, "check", "div", id_path, id_path)
    assert code == 0
    assert doc["status"] == "feasible"
    witness, _ = io.channel_from_json(doc["witness"], atol=1e-6)
    assert ch.choi_distance(witness, ch.identity(2)) < 1e-6


def test_reloaded_witness_meets_reported_residuals(tmp_path, capsys):
    stem = str(tmp_path / "ex2")
    main(["make", "example2", "-o", stem])
    capsys.readouterr()
    code, doc = run(capsys, "check", "compat", f"{stem}.psi.json", f"{stem}.phi.json")
    assert code == 0
    witness, _ = io.channel_from_json(doc["witness"], atol=1e-6)
    psi, _, _ = io.load_channel(f"{stem}.psi.json")
    phi, _, _ = io.load_channel(f"{stem}.phi.json")
    res_b = ch.choi_distance(ch.output_marginal(witness, (2, 2), (0,)), psi)
    res_c = ch.choi_distance(ch.output_marginal(witness, (2, 2), (1,)), phi)
    assert max(res_b, res_c) <= doc["residuals"]["verification"] + 1e-12


def test_check_selfdeg_and_degradable(tmp_path, capsys):
    sc = str(tmp_path / "sc.json")
    main(["make", "selfcomp", "--family", "1", "--alpha", "0", "--beta", "0", "-o", sc])
    capsys.readouterr()
    code, doc = run(capsys, "check", "selfdeg", sc)
    assert code == 0 and doc["status"] == "feasible"
    code, doc = run(capsys, "check", "degradable", sc)
    assert code == 0 and doc["status"] == "feasible"
    code, doc = run(capsys, "check", "antidegradable", sc)
    assert code == 0


def test_selfdeg_unitary_reports_mismatch(tmp_path, capsys):
    u = str(tmp_path / "u.json")
    main(["make", "unitary", "--dim", "2", "--seed", "5", "-o", u])
    capsys.readouterr()
    code, doc = run(capsys, "check", "selfdeg", u)
    assert code == 1
    assert doc["residuals"]["verification"] is None  # infinite distance
    assert doc["environment_dim"] == 1


def test_complement_roundtrip(tmp_path, capsys):
    sc = str(tmp_path / "sc.json")
    out = str(tmp_path / "scc.json")
    main(["make", "selfcomp", "--alpha", "0", "--beta", "0", "-o", sc])
    assert main(["complement", sc, "-o", out]) == 0
    capsys.readouterr()
    comp, _, _ = io.load_channel(out)
    orig, _, _ = io.load_channel(sc)
    assert frob(comp.choi - orig.choi) < 1e-10  # self-complementary point


def test_verify_corollary_exit_zero(capsys):
    code, doc = run(
        capsys,
        "verify",
        "corollary",
        "--family",
        "1",
        "--alpha",
        "0",
        "--beta",
        "0",
        "--seed",
        "7",
        "--trials",
        "2",
        "--quiet",
    )
    assert code == 0
    assert doc["status"] == "feasible"
    assert all(s["status"] == "feasible" for s in doc["steps"])
    assert "witness" not in doc


def test_verify_family_from_files(tmp_path, capsys):
    id_path = str(tmp_path / "id2.json")
    main(["make", "identity", "--dim", "2", "-o", id_path])
    capsys.readouterr()
    code, doc = run(capsys, "verify", "family", id_path, id_path, id_path, "--quiet")
    assert code == 0
    assert len(doc["steps"]) == 2


def test_verify_family_without_files_samples_a_power_family(capsys):
    code, doc = run(capsys, "verify", "family", "--steps", "3", "--seed", "1", "--quiet")
    assert code == 0 and doc["status"] == "feasible"
    assert len(doc["steps"]) == 2


def test_make_without_an_output_file_prints_the_channel_document(capsys):
    code, doc = run(capsys, "make", "identity", "--dim", "2")
    assert code == 0
    channel, kraus = io.channel_from_json(doc)
    assert kraus is None and (channel.dim_in, channel.dim_out) == (2, 2)
    assert np.array_equal(channel.choi, ch.identity(2).choi)


def test_usage_errors_exit_three(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "nope.json")
    assert main(["check", "compat", missing, missing]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_in": 2}')
    assert main(["check", "selfdeg", str(bad)]) == 3
    assert main(["check", "compat", str(bad)]) == 3  # wrong arity
    capsys.readouterr()
    # make example2 writes three files, so it needs -o, and that is checked
    # before the pair is built.
    built = []
    monkeypatch.setattr(ch, "trace_out_pair", lambda *pair: built.append(pair))
    monkeypatch.chdir(tmp_path)
    assert main(["make", "example2"]) == 3
    captured = capsys.readouterr()
    message = "error: make example2 requires -o; it emits three files\n"
    assert captured.out == "" and captured.err == message
    assert built == [] and list(tmp_path.glob("*.psi.json")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "bogus", "x.json"],
        ["--eps", "abc", "verify", "thm1"],
        ["check", "compat"],
    ],
    ids=["invalid-choice", "non-numeric-eps", "missing-positional"],
)
def test_parser_errors_return_three(capsys, argv):
    # The parser's own rejections are usage errors too: main returns 3
    # (argparse would exit 2, the inconclusive code), and the usage
    # message goes to stderr only.
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "identity", "--dim", "0"],
        ["make", "depolarizing", "--dim", "0"],
        ["make", "unitary", "--dim", "0"],
        ["make", "example2", "--dim-b", "0"],
        ["make", "example2", "--dim-c", "-1"],
    ],
)
def test_make_rejects_dimensions_below_one(tmp_path, capsys, argv):
    # A channel file carries dimensions of at least 1, so a make that would
    # write any other is a usage error, with no file written.
    out = tmp_path / "z.json"
    assert main([*argv, "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: "), captured.err
    assert "--dim" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm1", "--trials", "0"],
        ["verify", "thm1", "--trials", "-3"],
        ["verify", "family", "--steps", "1"],
        ["--eps", "inf", "verify", "thm1", "--trials", "1"],
    ],
)
def test_vacuous_verify_is_rejected(capsys, argv):
    # A run that checks nothing must not report success.
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_family_needs_two_files(tmp_path, capsys):
    id_path = str(tmp_path / "id2.json")
    main(["make", "identity", "--dim", "2", "-o", id_path])
    capsys.readouterr()
    assert main(["verify", "family", id_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_quiet_flag_position_independent(tmp_path, capsys):
    id_path = str(tmp_path / "id2.json")
    main(["make", "identity", "--dim", "2", "-o", id_path])
    capsys.readouterr()
    _, doc1 = run(capsys, "--quiet", "check", "div", id_path, id_path)
    _, doc2 = run(capsys, "check", "div", id_path, id_path, "--quiet")
    assert "witness" not in doc1 and "witness" not in doc2


def test_parser_is_built_once_and_calls_do_not_leak(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    id_path = str(tmp_path / "id2.json")
    main(["make", "identity", "--dim", "2", "-o", id_path])
    capsys.readouterr()
    # A global flag given to one call does not carry over to the next.
    _, doc = run(capsys, "--eps", "1e-6", "check", "div", id_path, id_path)
    assert doc["config"]["eps_feas"] == 1e-6
    _, doc = run(capsys, "check", "div", id_path, id_path)
    assert doc["config"]["eps_feas"] == 1e-7
    _, doc = run(capsys, "--quiet", "check", "div", id_path, id_path)
    assert "witness" not in doc
    _, doc = run(capsys, "check", "div", id_path, id_path)
    assert "witness" in doc
    # Nor does a usage error.
    assert main(["check", "div", id_path]) == 3
    capsys.readouterr()
    code, doc = run(capsys, "check", "div", id_path, id_path)
    assert code == 0 and doc["status"] == "feasible"


def test_make_unitary_from_matrix_file(tmp_path, capsys):
    u_mat = tmp_path / "u_mat.json"
    u_mat.write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    out = str(tmp_path / "u.json")
    assert main(["make", "unitary", "--matrix", str(u_mat), "-o", out]) == 0
    capsys.readouterr()
    c, _, _ = io.load_channel(out)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert ch.choi_distance(c, ch.unitary_channel(flip)) < 1e-12


@pytest.mark.parametrize(
    "text, message",
    [
        ("[[[1, 0], [0, 0]]", "malformed JSON"),
        (json.dumps([[[1, 0], [0, 0]], [[0, 0]]]), "unitary matrix: expected equal-length rows"),
        (json.dumps([[[1, 0], [0, 0]], [[0, 0], [2, 0]]]), "Kraus set violates completeness"),
        (json.dumps([[[1, 0], [0, 0]]]), "unitary matrix must be square"),
    ],
)
def test_make_unitary_matrix_errors_name_the_file(tmp_path, capsys, text, message):
    u_mat = tmp_path / "u_mat.json"
    u_mat.write_text(text)
    out = tmp_path / "u.json"
    assert main(["make", "unitary", "--matrix", str(u_mat), "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: {u_mat}: ") and message in captured.err


def test_complement_of_choi_form_extracts_kraus(tmp_path, capsys):
    dep = str(tmp_path / "dep.json")
    out = str(tmp_path / "depc.json")
    main(["make", "depolarizing", "--dim", "2", "-o", dep])
    assert main(["complement", dep, "-o", out]) == 0
    err = capsys.readouterr().err
    assert "extracted" in err
    comp, _, _ = io.load_channel(out)
    assert comp.dim_out == 4  # canonical environment of the depolarizing qubit


def instance_files(tmp_path, name):
    """Choi files of the channels of ``paths.INSTANCES[name]``."""
    files = []
    for k, channel in enumerate(INSTANCES[name].channels):
        files.append(str(tmp_path / f"{name}-{k}.json"))
        io.save_channel(files[-1], channel)
    return files


def test_iteration_cap_gives_inconclusive_exit(tmp_path, capsys):
    # Depolarizing self-compatibility at 2/3 - 1e-2 is feasible at iteration
    # 4; capped at 2, it is inconclusive.
    name = "dep-compat-d2-below-1e-2-cap-2"
    cap = str(INSTANCES[name].config.max_iter)
    files = instance_files(tmp_path, name)
    code, doc = run(capsys, "check", "compat", *files, "--max-iter", cap, "--quiet")
    assert code == 2
    assert doc["status"] == "inconclusive"
    assert doc["stop_reason"] == "iteration-cap" and doc["iterations"] == 2


def test_module_entry_point(tmp_path):
    id_path = str(tmp_path / "id2.json")
    subprocess.run(
        [sys.executable, "-m", "chancompat", "make", "identity", "-o", id_path],
        check=True,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "chancompat", "--quiet", "check", "div", id_path, id_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "feasible"


def test_certified_infeasible_report(tmp_path, capsys):
    ad = str(tmp_path / "ad.json")
    id_path = str(tmp_path / "id2.json")
    io.save_channel(ad, ch.amplitude_damping(0.3))
    main(["make", "identity", "--dim", "2", "-o", id_path])
    capsys.readouterr()
    code, doc = run(capsys, "check", "div", ad, id_path)
    assert code == 1 and doc["status"] == "not-feasible-at-tolerance"
    assert doc["stop_reason"] == "certificate" and doc["iterations"] == 1
    assert doc["warnings"] == []
    bound = doc["certificate"]["residual_lower_bound"]
    assert bound >= 10 * doc["config"]["eps_feas"]
    # The bound re-checks from the two channel files and the reported
    # operators alone: Y_T on B and Y on A (x) C, in the files' matrix format.
    psi, _, _ = io.load_channel(ad)
    phi, _, _ = io.load_channel(id_path)
    cons = CompositionConstraintSet((psi.dim_in, psi.dim_out, phi.dim_out), psi.choi, phi.choi)
    y_t, y = (io.matrix_from_json(m) for m in doc["certificate"]["multipliers"])
    assert y_t.shape == (psi.dim_out,) * 2 and y.shape == (psi.dim_in * phi.dim_out,) * 2
    assert certificate_bound(cons, (y_t, y)) == bound
    _, quiet = run(capsys, "check", "div", ad, id_path, "--quiet")
    assert quiet["certificate"] == {"residual_lower_bound": bound}


def test_uncertified_plateau_is_inconclusive(tmp_path, capsys):
    # Depolarizing self-compatibility 1e-7 above the cloning threshold 2/3:
    # not compatible, but no bound reaches 10 * eps_feas, so the best
    # residual plateaus, and without a certificate the plateau decides
    # nothing.
    files = instance_files(tmp_path, "dep-compat-d2-above-1e-7")
    code, doc = run(capsys, "check", "compat", *files, "--quiet")
    assert code == 2 and doc["status"] == "inconclusive"
    assert doc["stop_reason"] == "plateau" and "certificate" not in doc
    assert doc["warnings"] == []


def test_noisy_pair_is_feasible_with_reverified_witness(tmp_path, capsys):
    # Compatible by construction, with 1e-4 of noise. The PSD iterate's
    # residual stalls near 1e-4 for thousands of iterations; the affine
    # point is positive definite early and ends the solve.
    psi_path, phi_path = instance_files(tmp_path, "noisy-thm1-d2-env2-1e-4")
    code, doc = run(capsys, "check", "compat", psi_path, phi_path)
    assert code == 0 and doc["status"] == "feasible" and doc["stop_reason"] == "tolerance"
    assert doc["iterations"] < 1000
    witness, _ = io.channel_from_json(doc["witness"], atol=1e-6)
    psi, _, _ = io.load_channel(psi_path)
    phi, _, _ = io.load_channel(phi_path)
    cp, tp = ch.cptp_defects(witness)
    assert cp <= 1e-8 and tp <= 1e-6
    assert max(an.marginal_distances(witness, psi, phi)) <= 1e-6


def test_inconsistent_rows_are_certified(tmp_path, capsys):
    # Example-2 divisibility: the affine rows alone have least-squares
    # residual sqrt(6), which multipliers orthogonal to M's range prove. The
    # start is positive definite, so its rows certify at iteration 0.
    stem = str(tmp_path / "ex2")
    main(["make", "example2", "-o", stem])
    capsys.readouterr()
    code, doc = run(capsys, "check", "div", f"{stem}.psi.json", f"{stem}.phi.json", "--quiet")
    assert code == 1 and doc["status"] == "not-feasible-at-tolerance"
    assert doc["stop_reason"] == "certificate" and doc["iterations"] == 0
    assert abs(doc["certificate"]["residual_lower_bound"] - np.sqrt(6.0)) < 1e-9
    assert doc["warnings"] == []


def test_choi_file_within_load_skew_is_decided(tmp_path, capsys):
    # The loader accepts an anti-Hermitian part up to 1e-9. The constraint
    # set builds its rows from the Hermitian parts of such targets, so the
    # solver starts from a Hermitian point and decides both orders.
    choi = ch.choi_from_kraus(ch.amplitude_damping(0.3)).choi.copy()
    choi[0, 1] += 5e-10
    choi[1, 0] -= 5e-10
    skew, ad05 = str(tmp_path / "skew.json"), str(tmp_path / "ad05.json")
    with open(skew, "w") as fh:
        json.dump({"dim_in": 2, "dim_out": 2, "choi": io.matrix_to_json(choi)}, fh)
    io.save_channel(ad05, ch.amplitude_damping(0.5))
    code, doc = run(capsys, "check", "div", skew, ad05, "--quiet")
    assert code == 0 and doc["status"] == "feasible"
    code, doc = run(capsys, "check", "div", ad05, skew, "--quiet")
    assert code == 1 and doc["stop_reason"] == "certificate"
    assert doc["certificate"]["residual_lower_bound"] >= 10 * doc["config"]["eps_feas"]


def test_verify_reports_solver_iterations(tmp_path, capsys):
    # The identity divides psi at its start, iteration 0. psi, a qubit
    # channel after complete dephasing, is not invertible, so its quotients
    # form a family whose minimum-norm start is not PSD: the solve iterates.
    rng = np.random.default_rng(4)
    dephasing = ch.Channel(2, 2, np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex))
    psi = ch.compose_choi(dephasing, ch.choi_from_kraus(ch.random_kraus(2, 2, 2, rng)))
    phi = ch.compose_choi(psi, ch.random_channel(2, 2, rng, dim_env=2))
    paths = [str(tmp_path / f"{name}.json") for name in ("id2", "psi", "phi")]
    main(["make", "identity", "--dim", "2", "-o", paths[0]])
    io.save_channel(paths[1], psi)
    io.save_channel(paths[2], phi)
    capsys.readouterr()
    _, doc = run(capsys, "verify", "family", *paths, "--quiet")
    assert [s["iterations"] for s in doc["steps"]] == [0, 4]
    assert doc["iterations"] == 4


def test_check_reports_the_candidate_and_rejections(tmp_path, capsys):
    # The fields of the solver's report: a stop at the start on the affine
    # candidate at iteration 0, a stop after one rejected extrapolation, and
    # a certificate, which has no candidate.
    names = ["ad-0.5-antidegradable", "noisy-thm1-d3-env1-5.7e-3", "identity-compat-d2"]
    for name in names:
        instance = INSTANCES[name]
        _, doc = run(capsys, "check", instance.check, *instance_files(tmp_path, name), "--quiet")
        fields = doc["stop_reason"], doc["candidate"], doc["rejections"]
        assert fields == (instance.stop_reason, instance.candidate, instance.rejections)
        assert doc["iterations"] == instance.report.solver.iterations
    assert [INSTANCES[name].report.solver.iterations == 0 for name in names] == [True, False, True]


PIPELINE_STEP_KINDS = {
    "thm1": ["reverse", "forward"],
    "thm2i": ["degradable", "divisible", "quotient"],
    "thm2ii": ["antidegradable", "compatible", "construction"],
    "prop1": ["antidegrading"],
    "nocatalysis": ["reduction"],
}


@pytest.mark.parametrize("pipeline", PIPELINE_STEP_KINDS)
def test_verify_pipeline_single_trial(capsys, pipeline):
    code, doc = run(capsys, "verify", pipeline, "--seed", "17", "--trials", "1", "--quiet")
    assert code == 0 and doc["status"] == "feasible"
    assert [s["name"] for s in doc["steps"]] == [f"{k}-0" for k in PIPELINE_STEP_KINDS[pipeline]]
    assert all(s["status"] == "feasible" for s in doc["steps"])
    assert doc["iterations"] == sum(s.get("iterations", 0) for s in doc["steps"])


def test_verify_survives_reload_of_checks():
    # A reload re-creates Status; pipelines must not keep the class they
    # saw at import, or every comparison with a fresh verdict fails.
    code = (
        "import importlib\n"
        "from chancompat import analysis, cli, feasibility\n"
        "for module in (feasibility, analysis, cli):\n"
        "    importlib.reload(module)\n"
        "raise SystemExit(cli.main(['verify', 'thm2i', '--trials', '1', '--quiet']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["status"] == "feasible"


def asdict_step_json(step):
    """``cli._step_json`` as it was built from ``dataclasses.asdict``."""
    doc = {k: v for k, v in dataclasses.asdict(step).items() if v is not None}
    doc["status"] = step.status.value
    if "residual" in doc:
        doc["residual"] = cli._finite(step.residual)
    return doc


def test_step_json_matches_the_asdict_form_for_every_pipeline():
    config = SolverConfig(eps_feas=cli._VERIFY_EPS)
    rng = np.random.default_rng(5)
    steps = []
    for run_pipeline in cli._SAMPLED.values():
        steps += run_pipeline(rng, 1, config)[0]
    kraus = ch.self_complementary_qubit(1, 0.0, 0.0)
    steps += pipelines.corollary(kraus, rng, 1, config)[0]
    family = pipelines.power_family(ch.random_channel(2, 2, rng, dim_env=2), 3)
    steps += pipelines.family(family, config)[0]
    # Steps with unset fields and non-finite residuals.
    steps += [
        pipelines.Step("bare", Status.INCONCLUSIVE),
        pipelines.Step("inf", Status.NOT_FEASIBLE_AT_TOLERANCE, float("inf"), iterations=0),
        pipelines.Step("nan", Status.FEASIBLE, float("nan"), "tolerance", 3),
    ]
    assert {s.name.split("-")[0] for s in steps} >= {"reverse", "degradable", "antidegrading"}
    for step in steps:
        doc = cli._step_json(step)
        assert list(doc.items()) == list(asdict_step_json(step).items())
        assert json.dumps(doc) == json.dumps(asdict_step_json(step))


def scaled_ad_files(tmp_path):
    """A Choi file of AD(0.3) scaled by 1 + 1e-6 (CP, not trace preserving),
    a Kraus file of its operators scaled the same way (incomplete), and a
    valid AD(0.5) file."""
    ad = ch.amplitude_damping(0.3)
    names = ("ad03-choi.json", "ad03-kraus.json", "ad05.json")
    choi, kraus, good = (str(tmp_path / n) for n in names)
    scaled = ch.Channel(2, 2, ch.choi_from_kraus(ad).choi * (1 + 1e-6))
    io.save_channel(choi, scaled)
    with open(kraus, "w") as fh:
        ops = [io.matrix_to_json(op * (1 + 1e-6)) for op in ad.operators]
        json.dump({"dim_in": 2, "dim_out": 2, "kraus": ops}, fh)
    io.save_channel(good, ch.amplitude_damping(0.5))
    return choi, kraus, good


def test_loader_tp_and_completeness_errors_exit_three(tmp_path, capsys):
    choi, kraus, good = scaled_ad_files(tmp_path)
    for bad, message in ((choi, "not trace preserving"), (kraus, "violates completeness")):
        for argv in (
            ["check", "div", bad, good],
            ["check", "div", good, bad],
            ["check", "degradable", bad],
        ):
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {bad}: "), err
            assert message in err, err
