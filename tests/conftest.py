import contextlib
import gc

import numpy as np
import pytest

from losscast.schema import RunConfig
from losscast.synth import OracleParams, SynthDesign, generate_synthetic_runs


def make_config(**overrides) -> RunConfig:
    base = dict(
        source="synthetic",
        model_size_n=215.0,
        data_size_d=25.0,
        total_steps=6000,
        optimizer="adamw",
        peak_lr=1e-3,
        batch_size=480.0,
        num_layers=16,
        num_heads=8,
        hidden_dim=1024,
        lr_schedule="cosine",
        min_lr_ratio=0.1,
        weight_decay=0.1,
        warmup=0.01,
        warmup_is_ratio=True,
        beta1=0.9,
        beta2=0.95,
        epsilon=8.0,
    )
    base.update(overrides)
    return RunConfig(**base)


@contextlib.contextmanager
def collections_started():
    """A list that gains the generation of each cyclic collection started
    within the block."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(note)
    try:
        yield started
    finally:
        gc.callbacks.remove(note)


@pytest.fixture(scope="session")
def oracle_params() -> OracleParams:
    return OracleParams()


@pytest.fixture(scope="session")
def small_design() -> SynthDesign:
    # 2 optimizers x 3 lr x 2 bs x 2 wd over 6 sizes = 144 runs
    return SynthDesign(
        sizes=((130.0, 10.0), (215.0, 10.0), (300.0, 10.0),
               (130.0, 25.0), (215.0, 25.0), (520.0, 25.0)),
        lr_log_offsets=(-0.5, 0.0, 0.5),
        bs_log_offsets=(-0.4, 0.4),
        weight_decays=(0.1, 0.3),
    )


@pytest.fixture(scope="session")
def small_records(oracle_params, small_design):
    return generate_synthetic_runs(oracle_params, small_design, seed=5)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
