"""Reach of the CLI: the src/fqft functions that tools/reach.py's command
list (the CI workflow's CLI commands at small sizes, on the theories CI
reads) never enters, pinned with the reason each stays.

The test fails when the set grows (a function no command runs was added)
and when it shrinks (a command now runs one, or one left): a change that
moves reach updates NEVER_ENTERED and says so."""

import importlib.util
import sys
from pathlib import Path

# ROADMAP item 2 checks the paper's identities from the CLI, and item 3 the
# Virasoro relations from `fqft all`
ITEM_2 = "kept for ROADMAP item 2: "
ITEM_3 = "kept for ROADMAP item 3: "

NEVER_ENTERED = {
    # the formal backend's identities and the deformed free boson
    "deformation.FormalTheory._value": ITEM_2 + "the formal builders' shared values",
    "deformation._channel": ITEM_2 + "the C channel of the correction and of the dilation sides",
    "deformation._expansion": ITEM_2 + "the correction and the integrated OPE as RExpansions",
    "deformation.compute_correction": ITEM_2 + "goodness and the anomalous dilation",
    "deformation.integrated_ope": ITEM_2 + "goodness of the corrected insertion",
    "deformation.insert_family_deformed": ITEM_2 + "goodness of the corrected insertion",
    "deformation.deformed_one_point": ITEM_2 + "goodness of the corrected insertion",
    "deformation.deformed_one_point.take_limit": ITEM_2 + "goodness of the corrected insertion",
    "deformation.marginal_coupling_algebra": ITEM_2 + "the couplings of the deformed insertion",
    "deformation._dilate": ITEM_2 + "the anomalous dilation identity",
    "deformation._shift": ITEM_2 + "the anomalous dilation identity",
    "deformation._dilation_sides": ITEM_2 + "the anomalous dilation identity",
    "deformation.anomalous_dilation": ITEM_2 + "the anomalous dilation identity",
    "deformation.double_deform": ITEM_2 + "the radius scaling of the second-order pf",
    "deformation.radius_scaled": ITEM_2 + "the radius scaling of the second-order pf",
    "rexp.LogPoly.scale_radius": ITEM_2 + "the radius scaling, through radius_scaled",
    "rexp.LogPoly.__eq__": ITEM_2 + "the identities compare LogPolys; and test_rational_equality",
    "rexp.Sparse.__eq__": ITEM_2 + "the identities compare their sides",
    "rexp.RExpansion.constant": ITEM_2 + "insert_family_deformed's order-0 term",
    "rexp.RExpansion.constant_term": ITEM_2 + "deformed_one_point's r -> 0 limit",
    "rexp.RExpansion.singular_terms": ITEM_2 + "deformed_one_point's goodness test",
    "deformation.FormalVector.__init__": ITEM_2 + "deformed_one_point's zero vector; tests",
    "deformation.FormalVector.corr": ITEM_2 + "insert_family_deformed's insertion; tests",
    "deformation.fb_deformed_annulus": ITEM_2 + "the deformed free-boson cutting",
    "deformation.fb_deformed_disk": ITEM_2 + "the deformed free-boson disk closure",
    "fock.TruncatedFockSpace.zero": ITEM_2 + "the deformed free boson's zero state",
    "rexp.Sparse.scale": ITEM_2 + "fb_deformed_annulus's moments; and test_sparse",
    "observables.dilation": ITEM_2 + "the dilation of an observable (test_observables)",
    "observables._inverse_powers": ITEM_2 + "the dilation of an observable (test_observables)",
    # the Virasoro modes: the fb-session workload's virasoro op runs them
    "fock.build_virasoro": ITEM_3 + "L_n and Lbar_n",
    "fock._twice_virasoro": ITEM_3 + "the Sugawara tables of L_n",
    "fock._table_product": ITEM_3 + "the commutator on tables",
    "fock.commutator": ITEM_3 + "[L_m, L_n]",
    "fock.ModeOperator.__init__": ITEM_3 + "the mode operators",
    "fock.ModeOperator._summed": ITEM_3 + "the mode operators' lift",
    "fock.ModeOperator.entries": ITEM_3 + "the mode operators' lift",
    "fock.partition_count": ITEM_3 + "the block counts of the lift; and test_partition_counts",
    # test oracles and test-side readers
    "rexp.LogPoly.__mul__": "test oracle: _ref_dilate of test_single_pass_builders_match_reference",
    "rexp.LogPoly.__truediv__": "test oracle: test_arithmetic_matches_sympy divides by a rational",
    "rexp.Sparse.__bool__": "truth is nonzero: test_truth_is_nonzero",
    "rexp.Sparse.__neg__": "the tests' differences: test_sparse_algebra_matches_dict_reference",
    "rexp.Sparse.__sub__": "the tests' differences: test_sparse_algebra_matches_dict_reference",
    "rexp.RExpansion.term": "the tests' expansions: test_deformation",
    "rexp.RExpansion.coefficient": "the tests' reads of an expansion: test_deformation",
    "deformation.FormalVector.atom": "the tests' integral atoms: test_deformation",
    "deformation.FormalVector.coefficient": "the tests' reads of a vector: test_deformation",
    "jets.Jet.coefficient": "the tests' reads of a jet, and the deform workload's of a QM segment",
    "jets.JetAlgebra.__eq__": "equal algebras built apart: test_jets",
    "jets.JetAlgebra.__hash__": "equal algebras built apart: test_jets",
    "qm.SegmentPF.value": "the deform workload reads it until ROADMAP item 1 (second half)",
    "fock.TruncatedFockSpace.find": "the tests' basis lookups: test_fock",
    "fock.TruncatedFockSpace.zero_scalar": "a missing coefficient of a state: test_fock",
    "observables.identity_observable": "the identity's OPE rows: test_observables",
    "observables.OpeTable.coefficient": "the tests' reads of an OPE row: test_observables",
    "observables.ZSeries.coefficient": "the tests' reads of a two-point series: test_observables",
    # debugging aids
    "deformation.FormalVector.__repr__": "__repr__",
    "deformation.Primary.__repr__": "__repr__",
    "fock.BoundaryState.__repr__": "__repr__",
    "jets.Jet.__repr__": "__repr__",
    "observables.LocalObservable.__repr__": "__repr__",
    "rexp.RExpansion.__repr__": "__repr__",
}


def _reach():
    path = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_never_entered_set_is_pinned():
    def previous(frame, event, arg):
        return None

    sys.setprofile(previous)
    try:
        missed = _reach().never_entered()
        restored = sys.getprofile()
    finally:
        sys.setprofile(None)
    assert restored is previous
    lines = sum(missed.values())
    assert set(missed) - set(NEVER_ENTERED) == set(), f"newly never entered ({lines} lines)"
    assert set(NEVER_ENTERED) - set(missed) == set(), f"now entered or gone ({lines} lines)"
