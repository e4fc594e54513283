"""The public surface, pinned: a change to the exported names or to the
fields of ``SurfaceSpec`` must come with a deliberate edit here (and in the
README and CHANGES.md)."""

import ast
from dataclasses import fields
from pathlib import Path

import danielewski
from danielewski import SurfaceSpec

PUBLIC_NAMES = [
    "DanielewskiError", "ExpMap", "Factorization", "FamilyReport", "FiberKind",
    "FiberReport", "FieldSpec", "GF", "IsoCertificate", "Obstruction", "Poly", "QQ",
    "Scalar", "StableIsoCertificate", "SurfaceElement", "SurfaceSpec", "apply_map",
    "automorphisms", "bezout_cofactors", "build_stable_iso", "canonical_expmap",
    "check_hypotheses", "compose_certificates", "conjugate", "decide_isomorphism",
    "derivation_coeff", "divide_by_x", "exact_div", "factor_univariate", "fiber",
    "filtration_deg", "fingerprint", "gcd_univariate", "graded_surface",
    "identity_certificate", "invert_certificate", "is_invariant", "is_squarefree",
    "leading_form", "make_surface", "normal_form", "parse_field_tag", "parse_poly",
    "parse_scalar", "phi_degree", "poly_str", "resultant_in", "roots_in_field",
    "shift_surface", "sigma_family", "smoothness_check", "squarefree_part",
    "substitute", "verify_expmap", "verify_iso", "verify_stable_iso",
]


def test_public_names_are_pinned():
    assert sorted(danielewski.__all__) == PUBLIC_NAMES
    assert all(hasattr(danielewski, name) for name in PUBLIC_NAMES)


def test_surface_spec_is_its_defining_data():
    assert [f.name for f in fields(SurfaceSpec)] == ["field", "f", "P", "r", "d", "n"]
    assert SurfaceSpec.__dataclass_params__.frozen


def test_modules_import_no_private_name_from_a_sibling():
    offenders = []
    for path in sorted(Path(danielewski.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("danielewski")):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


# the defs of src/ that nothing in src/ names, with the file outside src/
# that uses each
USED_OUTSIDE_SRC = {"is_identity": "bench/workloads.py", "iso_to_doc": "bench/workloads.py"}


def test_every_def_in_src_has_a_user():
    # a def that no code in src/ names (a docstring does not count), that is
    # not exported and not listed above is dead code or a test-only helper
    defs, named = [], set()
    for path in sorted(Path(danielewski.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [f"{file}: {name}" for file, name in defs
              if not (name.startswith("__") and name.endswith("__"))
              and name not in named and name not in danielewski.__all__
              and name not in USED_OUTSIDE_SRC]
    assert unused == []
    root = Path(__file__).resolve().parent.parent
    for name, user in USED_OUTSIDE_SRC.items():
        assert name in (root / user).read_text(), (name, user)
