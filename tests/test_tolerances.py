"""The tolerance model: one validity bound for channel data wherever they
enter, and README's table of every threshold against the code."""

import ast
import importlib
import pathlib

import numpy as np
import pytest

from chancompat import analysis as an
from chancompat import channels as ch
from chancompat.feasibility import CompositionConstraintSet

ROOT = pathlib.Path(__file__).resolve().parents[1]
ROLES = {
    "validity",
    "equality",
    "rank cut",
    "witness acceptance",
    "user default",
    "numerical guard",
    "solver numerics",
}


def readme_table():
    """{name: (value, role)} from the rows of README's Tolerances table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, value, role, _ = (cell.strip() for cell in line.strip("|").split("|"))
            rows[name.strip("`")] = (value.strip("`"), role)
    return rows


def numeric_constants():
    """Every number bound to a name at module level, or in a class body at
    module level, in the package's sources: ``module.NAME`` or
    ``module.Class.name``."""
    found = set()
    for path in sorted((ROOT / "src" / "chancompat").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            scopes = [(path.stem, node)]
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{path.stem}.{node.name}", inner) for inner in node.body]
            for prefix, stmt in scopes:
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                else:
                    continue
                value = stmt.value
                if not isinstance(value, ast.Constant) or type(value.value) not in (int, float):
                    continue
                found.update(f"{prefix}.{t.id}" for t in targets if isinstance(t, ast.Name))
    return found


def resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"chancompat.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_readme_table_matches_the_code():
    rows = readme_table()
    assert rows, "README has no Tolerances table"
    for name, (value, role) in rows.items():
        assert float(value) == resolve(name), name
        assert role in ROLES, (name, role)
    assert numeric_constants() <= rows.keys()
    assert "feasibility.SolverConfig.eps_feas" in numeric_constants()


def test_retired_tolerances_are_gone():
    for name in ("EPS_PSD", "EPS_TP"):
        assert not hasattr(ch, name)
    assert not hasattr(an, "_WITNESS_TOL")


def ad03():
    return ch.choi_from_kraus(ch.amplitude_damping(0.3))


def tp_defective(defect):
    """AD(0.3) with ``defect`` added to its first Choi diagonal entry: still
    positive semidefinite, with a TP defect of about ``defect``."""
    j = ad03().choi.copy()
    j[0, 0] += defect
    return ch.Channel(2, 2, j)


def skew_by(m, defect):
    """A copy of the Hermitian m with ``max |X - X^dag| = defect`` and m as
    its Hermitian part."""
    x = np.array(m, dtype=complex)
    x[0, 1] += defect / 2
    x[1, 0] -= defect / 2
    return x


def skewed(defect):
    """AD(0.3) with an anti-Hermitian part of ``defect``."""
    return ch.Channel(2, 2, skew_by(ad03().choi, defect))


@pytest.mark.parametrize("check", [an.check_divisibility, an.check_compatibility])
def test_checks_validate_inputs_at_the_validity_bound(check):
    # 5e-9 lies between the validity bound 1e-9 and the equality bound 1e-8,
    # at which these inputs were once validated.
    for defect in (5e-9, 5e-10):
        cp, tp = ch.cptp_defects(tp_defective(defect))
        assert cp == 0.0 and tp == pytest.approx(defect, rel=1e-6)
        j = skewed(defect).choi
        assert np.abs(j - j.conj().T).max() == pytest.approx(defect, rel=1e-12)
    good = ad03()
    for bad, message in (
        (tp_defective(5e-9), "is not trace preserving"),
        (skewed(5e-9), "has a non-Hermitian Choi operator"),
    ):
        with pytest.raises(ValueError, match=f"^psi {message}"):
            check(bad, good)
        with pytest.raises(ValueError, match=f"^phi {message}"):
            check(good, bad)
    for ok in (tp_defective(5e-10), skewed(5e-10)):
        assert check(ok, good).solver is not None
        assert check(good, ok).solver is not None


def test_constraint_set_validates_targets_at_the_validity_bound():
    # The set checks only the skew of a target, which need not be a channel.
    dims, good, eye = (2, 2, 2), ad03().choi, np.eye(2)
    for defect, raises in ((5e-9, True), (5e-10, False)):
        targets = {
            "psi": (skew_by(good, defect), good, None),
            "phi": (good, skew_by(good, defect), None),
            "first": (good, good, skew_by(eye, defect)),
        }
        for name, (psi, phi, first) in targets.items():
            if raises:
                with pytest.raises(ValueError, match=f"^{name} is not Hermitian"):
                    CompositionConstraintSet(dims, psi, phi, first=first)
            else:
                CompositionConstraintSet(dims, psi, phi, first=first)
