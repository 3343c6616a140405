"""Shared fixtures."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.compilers.hipcc import HipccCompiler
from repro.compilers.nvcc import NvccCompiler
from repro.compilers.options import OptLevel, OptSetting
from repro.devices.amd import amd_mi250x
from repro.devices.nvidia import nvidia_v100
from repro.exec.units import clear_runners
from repro.fp.types import FPType
from repro.harness.runner import DifferentialRunner
from repro.ir.builder import IRBuilder
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import build_corpus

#: The CI exec-bench job's long bit-equality search
#: (``HYPOTHESIS_PROFILE=deep``); see ``TestBatchBitEquality``.
settings.register_profile(
    "deep",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(autouse=True)
def cold_runners():
    """Each test starts with an empty runner registry
    (:meth:`repro.exec.units.RunnerSpec.build`), so a runner a test
    patched or warmed never serves the next test."""
    clear_runners()
    yield
    clear_runners()


@pytest.fixture(scope="session")
def nvidia_device():
    return nvidia_v100()


@pytest.fixture(scope="session")
def amd_device():
    return amd_mi250x()


@pytest.fixture(scope="session")
def nvcc():
    return NvccCompiler()


@pytest.fixture(scope="session")
def hipcc():
    return HipccCompiler()


@pytest.fixture(scope="session")
def runner():
    return DifferentialRunner()


@pytest.fixture
def b64():
    """FP64 IR builder."""
    return IRBuilder(FPType.FP64)


@pytest.fixture
def b32():
    """FP32 IR builder."""
    return IRBuilder(FPType.FP32)


@pytest.fixture(scope="session")
def small_fp64_corpus():
    cfg = GeneratorConfig.fp64(inputs_per_program=3)
    return build_corpus(cfg, 25, root_seed=1234)


@pytest.fixture(scope="session")
def small_fp32_corpus():
    cfg = GeneratorConfig.fp32(inputs_per_program=3)
    return build_corpus(cfg, 20, root_seed=1234)


O0 = OptSetting(OptLevel.O0)
O1 = OptSetting(OptLevel.O1)
O2 = OptSetting(OptLevel.O2)
O3 = OptSetting(OptLevel.O3)
O3_FM = OptSetting(OptLevel.O3, fast_math=True)


@pytest.fixture(params=[O0, O1, O3, O3_FM], ids=lambda o: o.label)
def any_opt(request):
    return request.param
