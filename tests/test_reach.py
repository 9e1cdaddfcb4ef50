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
    "rexp.RExpansion.singular_terms": ITEM_2 + "deformed_one_point's goodness test",
    "deformation.FormalVector.__init__": ITEM_2 + "deformed_one_point's zero vector; tests",
    "deformation.FormalVector.corr": ITEM_2 + "insert_family_deformed's insertion; tests",
    "deformation.fb_deformed_annulus": ITEM_2 + "the deformed free-boson cutting",
    "deformation.fb_deformed_disk": ITEM_2 + "the deformed free-boson disk closure",
    "fock.TruncatedFockSpace.zero": ITEM_2 + "the deformed free boson's zero state",
    "rexp.Sparse.scale": ITEM_2 + "fb_deformed_annulus's moments; and test_sparse",
    "observables.dilation": ITEM_2 + "the dilation of an observable (test_observables)",
    # the Virasoro modes: the fb-session workload's virasoro op runs them
    "fock.build_virasoro": ITEM_3 + "the modes L_n",
    "fock._twice_virasoro": ITEM_3 + "the Sugawara tables of L_n",
    "fock._table_product": ITEM_3 + "the commutator on tables",
    "fock.commutator": ITEM_3 + "[L_m, L_n]",
    "fock.ModeOperator.__init__": ITEM_3 + "the mode operators",
    "fock.ModeOperator._summed": ITEM_3 + "the mode operators' lift",
    "fock.ModeOperator.entries": ITEM_3 + "the mode operators' lift",
    "fock.partition_count": ITEM_3 + "the block counts of the lift; and test_partition_counts",
    # the checked constructors: annulus_pf, disk_pf and glue build through _of
    "geometry.Annulus.__init__": "the checked constructor of a hand-built annulus (test_surface_validation)",
    "geometry.Disk.__init__": "the checked constructor of a hand-built disk (test_surface_validation)",
    # glue and the cutting check read an annulus's int numerators over its
    # denominator, and the disk closure forms the Fractions its state's levels need
    "geometry.Annulus.by_level": "the level scalars as Fractions, for readers (test_geometry)",
    # value semantics of the sparse values and jet algebras
    "rexp.Sparse.__bool__": "value semantics: truth is nonzero",
    "rexp.Sparse.__neg__": "value semantics: negation, through scale(-1)",
    "rexp.Sparse.__sub__": "value semantics: differences",
    "jets.JetAlgebra.__eq__": "value semantics: equal algebras built apart",
    "jets.JetAlgebra.__hash__": "value semantics: equal algebras built apart",
    # read by the benchmark's workloads (perfbench/workloads.py)
    "jets.Jet.coefficient": "the deform workload reads a QM segment's orders",
    "qm.SegmentPF.value": "the deform workload reads it until ROADMAP item 1 (second half)",
    # library readers that no command reaches
    "observables.identity_observable": "the paper's identity observable, beside j and j jbar",
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
