"""The package's top-level API."""

import importlib.util

import mflo
import mflo.basis
import mflo.fitting

DENSE_ORACLES = ("overlap_3d", "t_tensor", "solve_core", "fidelity_gradient",
                 "tucker_statevector")


def test_oracles_stay_in_fitting_and_errors_export_from_their_raisers():
    for name in DENSE_ORACLES:
        assert name not in mflo.__all__
        assert not hasattr(mflo, name)
        assert name in mflo.fitting.__all__
        assert callable(getattr(mflo.fitting, name))
    assert importlib.util.find_spec("mflo.exceptions") is None
    assert mflo.ConditioningError is mflo.fitting.ConditioningError
    assert mflo.ResourceLimitError is mflo.basis.ResourceLimitError
    assert mflo.DegenerateInputError is mflo.basis.DegenerateInputError
    assert {"ConditioningError", "ResourceLimitError", "DegenerateInputError"} <= set(mflo.__all__)
