"""The record contract: every qcorr record type is an immutable NamedTuple, and the validating ones check every construction."""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import qcorr
from qcorr.correlations import CorrelationResult, LocalSearch, OptimizerOptions, TriangleReport
from qcorr.entropy import BadIndices, EntropicIndices
from qcorr.families import BadKind, BadParameter, FamilySpec
from qcorr.linalg import DensityOperator, NotUnitary, SchmidtDecomposition
from qcorr.measurement import DisturbanceReport, LocalMeasurement, ProjectiveBasis

BASIS = ProjectiveBasis(np.eye(2, dtype=complex))

# each type with its fields in order, its defaults and the values of one valid record
RECORDS = [
    (DensityOperator, ("matrix", "dims"), {}, (np.eye(2) / 2, (2,))),
    (SchmidtDecomposition, ("coefficients", "basis_a", "basis_b", "schmidt_number"), {},
     (np.ones(1), np.eye(2), np.eye(2), 1)),
    (DisturbanceReport, ("entropy_before", "entropy_after", "purity_ratio", "rescale", "disturbance"), {},
     (0.1, 0.3, 1.0, 1.0, 0.2)),
    (CorrelationResult, ("value", "argmin", "restarts_used", "iterations", "spread", "converged", "grad_norm",
                         "basin_hits", "nfev"), {},
     (0.5, LocalMeasurement("A", BASIS), 8, 40, 0.0, True, 1e-10, 8, 120)),
    (TriangleReport, ("m_a", "m_b", "m_ab", "delta0", "delta1", "triangle_holds", "sandwich_holds",
                      "ordering_holds"), {}, (0.1, 0.2, 0.25, 0.1, 0.0, True, True, True)),
    (LocalSearch, ("fun", "unitaries", "grad_norm", "nfev", "nit", "success"), {},
     (0.5, (np.eye(2),), 1e-10, 12, 3, True)),
    (EntropicIndices, ("q", "s"), {}, (2.0, 1.0)),
    (OptimizerOptions, ("restarts", "seed", "max_iter"), {"restarts": 32, "seed": 0, "max_iter": 2000}, (4, 1, 50)),
    (ProjectiveBasis, ("unitary",), {}, (np.eye(3, dtype=complex),)),
    (LocalMeasurement, ("side", "basis_a", "basis_b"), {"basis_a": None, "basis_b": None}, ("AB", BASIS, BASIS)),
    (FamilySpec, ("kind", "n_a", "n_b", "parameter", "psi"), {"psi": None}, ("werner", 2, 2, 0.3, None)),
]


@pytest.mark.parametrize("record, fields, defaults, values", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_is_an_immutable_tuple_of_its_fields(record, fields, defaults, values):
    assert issubclass(record, tuple)
    assert record._fields == fields
    assert record._field_defaults == defaults
    by_position, by_keyword = record(*values), record(**dict(zip(fields, values)))
    for made in (by_position, by_keyword):
        assert type(made) is record and made == values  # equality is field equality
        for name, value, stored in zip(fields, values, made, strict=True):
            assert getattr(made, name) is value and stored is value
        with pytest.raises(AttributeError):
            setattr(made, fields[0], values[0])


# a valid record of each validating type, a field set to an invalid value, and the named error it raises
INVALID = [
    (EntropicIndices(2.0, 1.0), "q", -1.0, BadIndices, "q must be positive, got -1.0"),
    (EntropicIndices(2.0, 1.0), "s", float("nan"), BadIndices, "q and s must be finite, got q=2.0, s=nan"),
    (OptimizerOptions(), "restarts", 0, ValueError, "restarts must be >= 1, got 0"),
    (OptimizerOptions(), "seed", True, ValueError, "seed must be an integer, got True"),
    (ProjectiveBasis(np.eye(2)), "unitary", np.ones((2, 2)), NotUnitary, "deviation from unitarity"),
    (LocalMeasurement("A", BASIS), "side", "C", ValueError, "side must be A, B or AB, got 'C'"),
    (LocalMeasurement("A", BASIS), "basis_a", None, ValueError, "side A requires basis_a"),
    (LocalMeasurement("AB", BASIS, BASIS), "basis_b", np.eye(2), ValueError,
     "basis_b must be a ProjectiveBasis or None, got ndarray"),
    (FamilySpec("werner", 2, 2, 0.3), "kind", "bell", BadKind, "kind must be one of"),
    (FamilySpec("werner", 2, 2, 0.3), "parameter", 2.0, BadParameter, "werner x must be in [-1, 1], got 2.0"),
    (FamilySpec("werner", 2, 2, 0.3), "n_a", 2.5, BadParameter, "side dimensions must be integers, got 2.5 and 2"),
    (FamilySpec("werner", 2, 2, 0.3), "n_b", True, BadParameter, "side dimensions must be integers, got 2 and True"),
]


@pytest.mark.parametrize("valid, field, bad, error, message", INVALID,
                         ids=[f"{type(row[0]).__name__}.{row[1]}" for row in INVALID])
def test_validating_record_raises_its_named_error(valid, field, bad, error, message):
    values = valid._asdict() | {field: bad}
    for construct in (lambda: type(valid)(*values.values()), lambda: type(valid)(**values),
                      lambda: valid._replace(**{field: bad})):
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            construct()


# each validating record's real-valued fields, which take only what linalg.is_real accepts
REAL_FIELDS = [(EntropicIndices(2.0, 1.0), ("q", "s"), BadIndices),
               (FamilySpec("werner", 2, 2, 0.3), ("parameter",), BadParameter)]


@pytest.mark.parametrize("valid, fields, error", REAL_FIELDS, ids=[type(row[0]).__name__ for row in REAL_FIELDS])
def test_real_field_rejects_what_is_not_a_real_number(valid, fields, error):
    """Text, complex numbers, None, bools and arrays raise the record's named error; numpy scalars are kept as given."""
    for field in fields:
        for bad in ("0.5", 0.5 + 0j, None, True, np.bool_(False), np.array(0.5)):
            with pytest.raises(error, match="must be a real number|must be real numbers"):
                valid._replace(**{field: bad})
        for good in (0.5, 1, np.float64(0.5), np.float32(0.5), np.int64(1)):
            assert getattr(valid._replace(**{field: good}), field) is good


def test_import_leaves_out_dataclasses():
    """No qcorr module imports dataclasses, whose class building was most of the module-body time of the import."""
    src = pathlib.Path(qcorr.__file__).resolve().parent.parent
    code = "import sys, qcorr, qcorr.cli; sys.exit('dataclasses' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr or "qcorr imported dataclasses"
