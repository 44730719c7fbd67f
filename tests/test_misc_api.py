"""Miscellaneous coverage: logging helpers, top-level API surface, effects."""

import logging

import numpy as np
import pytest

import repro
from repro.core.pipeline import FusionResult
from repro.core.steps.transform import PCTBasis
from repro.logging_utils import configure_basic_logging, get_logger, silence
from repro.scp.effects import Compute, Probe, Recv, Send, Sleep


class TestLoggingUtils:
    def test_get_logger_namespacing(self):
        logger = get_logger("scp.runtime")
        assert logger.name == "repro.scp.runtime"

    def test_configure_and_silence(self):
        configure_basic_logging(level=logging.WARNING)
        root = logging.getLogger("repro")
        assert root.level == logging.WARNING
        assert root.handlers
        # Calling it twice must not duplicate handlers.
        configure_basic_logging()
        assert len(root.handlers) == 1
        silence()
        assert root.level > logging.CRITICAL


class TestTopLevelAPI:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_headline_workflow_types(self):
        assert callable(repro.SpectralScreeningPCT)
        assert callable(repro.fuse)
        assert callable(repro.open_session)
        assert callable(repro.HydiceGenerator)

    def test_subpackage_exports_resolve(self):
        import repro.analysis as analysis
        import repro.resilience as resilience
        import repro.scp as scp
        for module in (analysis, resilience, scp):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestEffectDataclasses:
    def test_defaults(self):
        send = Send(dst="a", port="p")
        assert send.payload is None and send.key is None and not send.urgent
        recv = Recv()
        assert recv.port is None and recv.timeout is None
        compute = Compute(fn=len)
        assert compute.flops == 0.0 and compute.phase == "compute"
        assert Sleep().seconds == 0.0
        assert Probe().port is None

    def test_effects_are_immutable(self):
        send = Send(dst="a", port="p")
        with pytest.raises(AttributeError):
            send.dst = "b"  # type: ignore[misc]


class TestFusionResultHelpers:
    def make_result(self):
        basis = PCTBasis(eigenvalues=np.array([3.0, 2.0, 1.0]),
                         components=np.eye(3), mean=np.zeros(3))
        return FusionResult(composite=np.zeros((4, 4, 3)),
                            components=np.zeros((4, 4, 3)), basis=basis,
                            unique_set_size=10,
                            phase_flops={"screening": 100.0, "projection": 50.0})

    def test_shape_and_total_flops(self):
        result = self.make_result()
        assert result.shape == (4, 4, 3)
        assert result.total_flops() == pytest.approx(150.0)

    def test_explained_variance(self):
        result = self.make_result()
        np.testing.assert_allclose(result.basis.explained_variance_ratio(),
                                   [0.5, 1 / 3, 1 / 6])
