"""Canonical feature table, scale factors, slots and their batch encoding."""

import dataclasses
import itertools
import json
import re
import zlib

import numpy as np
import pytest

from losscast.features import encode_batch
from losscast.gbt import GBTParams
from losscast.regressor import StagePlan, TrainPlan
from losscast.schema import (
    CATEGORICAL,
    KNOWN_EXTRAS,
    N_EXTRA_SLOTS,
    NONE_TOKEN,
    NUMERICAL,
    RunConfig,
    Schema,
    SchemaError,
)
from losscast.synth import OracleParams
from conftest import make_config

# the published per-field encoding: (name, kind, scale factor)
EXPECTED_TABLE = [
    ("source", CATEGORICAL, 1.0),
    ("model_size_n", NUMERICAL, 0.01),
    ("num_layers", NUMERICAL, 1.0),
    ("num_heads", NUMERICAL, 1.0),
    ("hidden_dim", NUMERICAL, 0.01),
    ("data_size_d", NUMERICAL, 1.0),
    ("total_steps", NUMERICAL, 0.001),
    ("optimizer", CATEGORICAL, 1.0),
    ("peak_lr", NUMERICAL, 1e4),
    ("lr_schedule", CATEGORICAL, 1.0),
    ("min_lr", NUMERICAL, 1e4),
    ("min_lr_ratio", NUMERICAL, 200.0),
    ("weight_decay", NUMERICAL, 100.0),
    ("batch_size", NUMERICAL, 0.1),
    ("warmup_ratio", NUMERICAL, 0.01),
    ("max_grad_norm", NUMERICAL, 1.0),
    ("beta_pair", CATEGORICAL, 1.0),
    ("epsilon", CATEGORICAL, 1.0),
    ("muon_adam_lr", NUMERICAL, 1e4),
    ("soap_block_size", NUMERICAL, 0.02),
    ("kron_precond_lr", CATEGORICAL, 1.0),
]
for _i in range(N_EXTRA_SLOTS):
    EXPECTED_TABLE.append((f"extra_key_{_i}", CATEGORICAL, 1.0))
    EXPECTED_TABLE.append((f"extra_val_{_i}", NUMERICAL, 1.0))


def slots_of(cfg, schema=None):
    """A config's slots by field name."""
    schema = schema or Schema.default()
    return dict(zip((s.name for s in schema.specs), schema.canonicalize(cfg), strict=True))


def token_of(slots, name, schema=None):
    """Map a categorical slot index back to its vocabulary token."""
    schema = schema or Schema.default()
    return schema.spec(name).vocabulary[int(slots[name])]


def test_default_field_table_is_frozen():
    got = [(s.name, s.kind, s.scale_factor) for s in Schema.default().specs]
    assert got == EXPECTED_TABLE


def test_frac_schema_appends_one_numerical_field():
    plain = Schema.default()
    frac = Schema.default(include_frac=True)
    assert len(frac.specs) == len(plain.specs) + 1
    assert frac.specs[-1].name == "frac"
    assert frac.specs[-1].kind == NUMERICAL
    assert frac.schema_hash() != plain.schema_hash()


def test_scale_factor_examples():
    cfg = make_config(peak_lr=9.77e-4, weight_decay=0.1, batch_size=96.0,
                      model_size_n=215.0, total_steps=4000)
    slots = slots_of(cfg)
    assert slots["peak_lr"] == pytest.approx(9.77)
    assert slots["weight_decay"] == pytest.approx(10.0)
    assert slots["batch_size"] == pytest.approx(9.6)
    assert slots["model_size_n"] == pytest.approx(2.15)
    assert slots["total_steps"] == pytest.approx(4.0)
    assert slots["min_lr_ratio"] == pytest.approx(20.0)   # 0.1 x 200
    assert slots["warmup_ratio"] == pytest.approx(1e-4)   # 0.01 x 0.01


def test_epsilon_and_beta_tokens():
    cfg = make_config(epsilon=8.0, beta1=0.9, beta2=0.95)
    slots = slots_of(cfg)
    assert token_of(slots, "epsilon") == "8"
    assert token_of(slots, "beta_pair") == "0.9,0.95"
    # raw stability constants arrive as their negated base-10 log
    assert RunConfig.epsilon_from_raw(1e-8) == pytest.approx(8.0)
    assert RunConfig.epsilon_from_raw(1e-15) == pytest.approx(15.0)


def test_absent_optionals_encode_as_none_tokens():
    cfg = make_config(beta1=None, beta2=None, epsilon=None, lr_schedule=None,
                      min_lr=None, min_lr_ratio=None)
    slots = slots_of(cfg)
    assert token_of(slots, "beta_pair") == NONE_TOKEN
    assert token_of(slots, "epsilon") == NONE_TOKEN
    assert token_of(slots, "lr_schedule") == NONE_TOKEN
    assert slots["min_lr"] == 0.0
    assert slots["min_lr_ratio"] == 0.0


# numerical slots that carry one field of the resolved config, times its scale
RESOLVED_SLOTS = {
    "model_size_n": "model_size_n", "num_layers": "num_layers",
    "num_heads": "num_heads", "hidden_dim": "hidden_dim",
    "data_size_d": "data_size_d", "total_steps": "total_steps",
    "peak_lr": "peak_lr", "min_lr": "min_lr", "min_lr_ratio": "min_lr_ratio",
    "weight_decay": "weight_decay", "batch_size": "batch_size",
    "warmup_ratio": "warmup", "max_grad_norm": "max_grad_norm",
}


def test_slots_carry_the_resolved_config():
    none_idx = 0  # NONE_TOKEN leads every vocabulary
    cases = [
        (make_config(), {"muon_adam_lr": 0.0, "soap_block_size": 0.0,
                         "kron_precond_lr": none_idx}),
        (make_config(optimizer="muon", beta1=None, beta2=None, epsilon=None,
                     optimizer_extras={"adam_lr": 3e-4}),
         {"muon_adam_lr": 3.0, "soap_block_size": 0.0, "extra_key_0": none_idx}),
        (make_config(optimizer="soap", optimizer_extras={"block_size": 128.0}),
         {"soap_block_size": 2.56, "muon_adam_lr": 0.0, "extra_key_0": none_idx}),
        (make_config(min_lr=1e-4, min_lr_ratio=None),
         {"min_lr": 1.0, "min_lr_ratio": 20.0}),
        (make_config(warmup=500.0, warmup_is_ratio=False),
         {"warmup_ratio": 500.0 / 6000 * 0.01}),
        (make_config(max_grad_norm=1.0, weight_decay=0.0),
         {"weight_decay": 0.0, "max_grad_norm": 1.0}),
    ]
    schema = Schema.default()
    for cfg, want in cases:
        slots = slots_of(cfg)
        res = cfg.resolved()
        for name, attr in RESOLVED_SLOTS.items():
            assert slots[name] == pytest.approx(
                getattr(res, attr) * schema.spec(name).scale_factor, rel=1e-12, abs=1e-15
            ), name
        assert token_of(slots, "source") == cfg.source
        assert token_of(slots, "optimizer") == cfg.optimizer
        assert token_of(slots, "lr_schedule") == (cfg.lr_schedule or NONE_TOKEN)
        assert token_of(slots, "beta_pair") == cfg.beta_token()
        assert token_of(slots, "epsilon") == cfg.epsilon_token()
        for name, value in want.items():
            assert slots[name] == pytest.approx(value, rel=1e-12, abs=1e-15), name


def test_known_optimizer_extras_get_their_own_fields():
    cfg = make_config(optimizer="muon", optimizer_extras={"adam_lr": 3e-4})
    slots = slots_of(cfg)
    assert slots["muon_adam_lr"] == pytest.approx(3.0)  # x 1e4
    assert token_of(slots, "extra_key_0") == NONE_TOKEN


def test_unknown_extras_hash_into_slots():
    cfg = make_config(optimizer="mars",
                      optimizer_extras={"gamma": 0.025, "vr_scale": 2.0})
    slots = slots_of(cfg)
    keys = [token_of(slots, f"extra_key_{i}") for i in range(N_EXTRA_SLOTS)]
    vals = [slots[f"extra_val_{i}"] for i in range(N_EXTRA_SLOTS)]
    # sorted keys fill slots in order; the token is a crc32 bucket label
    for i, (name, value) in enumerate((("gamma", 0.025), ("vr_scale", 2.0))):
        assert keys[i] == f"h{zlib.crc32(name.encode()) % 63}"
        assert vals[i] == pytest.approx(value)
    assert keys[2] == keys[3] == NONE_TOKEN
    assert vals[2] == vals[3] == 0.0


def test_too_many_unknown_extras_rejected():
    extras = {f"knob_{i}": float(i) for i in range(N_EXTRA_SLOTS + 3)}
    cfg = make_config(optimizer="mars", optimizer_extras=extras)
    with pytest.raises(SchemaError):
        Schema.default().canonicalize(cfg)


def test_schema_hash_survives_dump_round_trip():
    s = Schema.default()
    s2 = Schema.from_dump(json.loads(json.dumps(s.dump())))
    assert s2.schema_hash() == s.schema_hash()
    assert [f.name for f in s2.specs] == [f.name for f in s.specs]


def test_vocab_extension_preserves_known_prefix():
    s = Schema.default()
    cfg = make_config(source="weblab", optimizer="adamw")
    with pytest.raises(SchemaError):
        s.canonicalize(cfg)  # unseen source without vocab extension
    s2 = s.with_vocab_from([cfg])
    slots = slots_of(cfg, s2)
    assert token_of(slots, "source", s2) == "weblab"
    old = next(f for f in s.specs if f.name == "source").vocabulary
    new = next(f for f in s2.specs if f.name == "source").vocabulary
    assert new[: len(old)] == old  # extension appends, never reorders


def test_validation_rejects_bad_configs():
    with pytest.raises(SchemaError):
        make_config(peak_lr=-1e-3)
    with pytest.raises(SchemaError):
        make_config(batch_size=0.0)
    with pytest.raises(SchemaError):
        make_config(beta1=0.9, beta2=None)
    with pytest.raises(SchemaError):
        make_config(warmup=1.5, warmup_is_ratio=True)
    with pytest.raises(SchemaError):
        make_config(min_lr=5e-4, min_lr_ratio=0.9)  # inconsistent pair


@pytest.mark.parametrize("good, bad, error, fault", [
    (make_config(), {"peak_lr": -1e-3}, SchemaError, "field 'peak_lr' must be positive"),
    (make_config(), {"min_lr": 2e-3, "min_lr_ratio": None}, SchemaError,
     "field 'min_lr' exceeds peak_lr"),
    (make_config(), {"min_lr_ratio": 2.0}, SchemaError,
     "field 'min_lr_ratio' must lie in [0, 1], got 2.0"),
    (make_config(), {"batch_size": True}, SchemaError,
     "field 'batch_size' must be a number, got True"),
    (StagePlan(epochs=1, peak_lr=1e-3), {"epochs": -1}, ValueError, "epochs must be >= 0"),
    (StagePlan(epochs=1, peak_lr=1e-3), {"warmup_steps": 2.5}, ValueError,
     "warmup_steps must be an integer, got 2.5"),
    (TrainPlan.final_default(), {"batch_size": 0}, ValueError, "batch_size must be >= 1"),
    (GBTParams(), {"max_depth": 0}, ValueError, "max_depth must be >= 1"),
    (GBTParams(), {"learning_rate": "0.1"}, ValueError,
     "learning_rate must be a number, got '0.1'"),
    (OracleParams(), {"noise_sigma": -0.1}, ValueError, "noise_sigma must be non-negative"),
    (OracleParams(), {"noise_sigma": True}, ValueError,
     "noise_sigma must be a number, got True"),
], ids=["config-range", "config-min-lr", "config-min-lr-ratio", "config-type",
        "stage-range", "stage-type",
        "plan-range", "gbt-range", "gbt-type", "oracle-range", "oracle-type"])
def test_a_bad_value_is_refused_when_built_and_when_replaced(good, bad, error, fault):
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(good)}
    with pytest.raises(error, match=re.escape(fault)):
        type(good)(**{**fields, **bad})
    with pytest.raises(error, match=re.escape(fault)):
        dataclasses.replace(good, **bad)


def test_warmup_ratio_resolution():
    by_ratio = make_config(warmup=0.05, warmup_is_ratio=True, total_steps=2000)
    by_steps = make_config(warmup=100.0, warmup_is_ratio=False, total_steps=2000)
    assert by_ratio.warmup_ratio == pytest.approx(0.05)
    assert by_steps.warmup_ratio == pytest.approx(0.05)



def reference_slots(schema, cfg, frac):
    """Reference encoder, one config and one field at a time: each field's raw
    value or token, then its scaled float or vocabulary index."""
    schema.check_frac(frac)
    known, unknown = {}, []
    for key in sorted(cfg.optimizer_extras):
        val = cfg.optimizer_extras[key]
        if key not in KNOWN_EXTRAS:
            unknown.append((f"h{zlib.crc32(key.encode()) % 63}", float(val)))
        elif schema.spec(KNOWN_EXTRAS[key][1]).kind == CATEGORICAL:
            known[KNOWN_EXTRAS[key][1]] = val if isinstance(val, str) else f"{val:g}"
        else:
            known[KNOWN_EXTRAS[key][1]] = float(val)
    if len(unknown) > N_EXTRA_SLOTS:
        raise SchemaError(f"too many unknown optimizer extras ({len(unknown)} > {N_EXTRA_SLOTS})")
    unknown += [(NONE_TOKEN, 0.0)] * (N_EXTRA_SLOTS - len(unknown))
    values = {
        "source": cfg.source, "model_size_n": cfg.model_size_n, "num_layers": cfg.num_layers,
        "num_heads": cfg.num_heads, "hidden_dim": cfg.hidden_dim,
        "data_size_d": cfg.data_size_d, "total_steps": cfg.total_steps,
        "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
        "lr_schedule": cfg.lr_schedule or NONE_TOKEN, "min_lr": cfg.resolved_min_lr(),
        "min_lr_ratio": cfg.resolved_min_lr_ratio(), "weight_decay": cfg.weight_decay,
        "batch_size": cfg.batch_size, "warmup_ratio": cfg.warmup_ratio,
        "max_grad_norm": cfg.max_grad_norm, "beta_pair": cfg.beta_token(),
        "epsilon": cfg.epsilon_token(),
        "muon_adam_lr": known.get("muon_adam_lr", 0.0),
        "soap_block_size": known.get("soap_block_size", 0.0),
        "kron_precond_lr": known.get("kron_precond_lr", NONE_TOKEN), "frac": frac,
    }
    for i, (key, val) in enumerate(unknown):
        values[f"extra_key_{i}"], values[f"extra_val_{i}"] = key, val
    slots = []
    for spec in schema.specs:
        v = values[spec.name]
        if spec.kind == NUMERICAL:
            slots.append(float(v) * spec.scale_factor)
        elif v in spec.vocabulary:
            slots.append(spec.vocabulary.index(v))
        else:
            raise SchemaError(f"unknown value '{v}' for categorical field '{spec.name}'")
    return slots


def per_row_encode(schema, configs, fracs):
    """Reference batch: each row's reference slots, split by kind."""
    num_idx = [i for i, s in enumerate(schema.specs) if s.kind == NUMERICAL]
    cat_idx = [i for i, s in enumerate(schema.specs) if s.kind == CATEGORICAL]
    x_num = np.empty((len(configs), len(num_idx)), dtype=np.float64)
    x_cat = np.empty((len(configs), len(cat_idx)), dtype=np.int64)
    for r, (cfg, frac) in enumerate(zip(configs, fracs)):
        slots = reference_slots(schema, cfg, frac)
        for j, i in enumerate(num_idx):
            x_num[r, j] = slots[i]
        for j, i in enumerate(cat_idx):
            x_cat[r, j] = slots[i]
    return x_num, x_cat


def mixed_configs():
    return [
        make_config(),
        make_config(optimizer="muon", beta1=None, beta2=None, epsilon=None,
                    lr_schedule=None, optimizer_extras={"adam_lr": 3e-4}),
        make_config(optimizer="soap", optimizer_extras={"block_size": 128.0}),
        make_config(optimizer="kron", optimizer_extras={"precond_lr": 0.5}),
        make_config(optimizer="mars", optimizer_extras={"gamma": 0.025, "vr_scale": 2.0}),
        make_config(min_lr=1e-4, min_lr_ratio=None, weight_decay=0.0),
        make_config(warmup=500.0, warmup_is_ratio=False, source="weblab"),
        make_config(min_lr=2e-4, min_lr_ratio=0.2, batch_size=256),
        make_config(optimizer="kron", optimizer_extras={
            "precond_lr": 1, **{f"knob_{i}": i / 4 for i in range(N_EXTRA_SLOTS)}}),
    ]


# configs the default schema refuses, each with its refusal
REFUSED_CONFIGS = [
    (make_config(optimizer="mars",
                 optimizer_extras={f"knob_{i}": 1.0 for i in range(N_EXTRA_SLOTS + 1)}),
     f"too many unknown optimizer extras ({N_EXTRA_SLOTS + 1} > {N_EXTRA_SLOTS})"),
    (make_config(source="zzz"), "unknown value 'zzz' for categorical field 'source'"),
    (make_config(optimizer="kron", optimizer_extras={"precond_lr": 0.3}),
     "unknown value '0.3' for categorical field 'kron_precond_lr'"),
]


def test_vocab_extension_adds_exactly_the_tokens_canonicalize_needs():
    configs = mixed_configs() + [
        make_config(optimizer="kron", optimizer_extras={"precond_lr": 0.25}),
        make_config(epsilon=11.0, beta1=0.85, beta2=0.99, lr_schedule="rsqrt",
                    source="zoo"),
    ]
    # checkpoints and GBT dumps carry the hash, so a widened schema must keep it
    for include_frac, want_hash in ((False, "319d0a7ae4f7faa5"), (True, "1efafda59f0fbc16")):
        base = Schema.default(include_frac)
        schema = base.with_vocab_from(configs)
        added = {s.name: s.vocabulary[len(b.vocabulary):]
                 for s, b in zip(schema.specs, base.specs) if s.vocabulary != b.vocabulary}
        assert added == {"source": ("weblab", "zoo"), "lr_schedule": ("rsqrt",),
                         "beta_pair": ("0.85,0.99",), "epsilon": ("11",),
                         "kron_precond_lr": ("0.25",)}
        assert schema.schema_hash() == want_hash
        for cfg in configs:
            schema.canonicalize(cfg, frac=0.5 if include_frac else None)


def test_encode_batch_matches_the_per_row_encoder():
    configs = mixed_configs()
    n = len(configs)
    plain = Schema.default().with_vocab_from(configs)
    curve = Schema.default(include_frac=True).with_vocab_from(configs)
    fracs = [[0.01, 0.2, 0.5, 1.0, 1e-9, 0.75, 0.3][i % 7] for i in range(n)]
    for schema, given, want_fracs in [
        (plain, None, [None] * n),
        (curve, None, [1.0] * n),   # a final-loss query on a curve schema
        (curve, fracs, fracs),
    ]:
        x_num, x_cat = encode_batch(schema, configs, given)
        ref_num, ref_cat = per_row_encode(schema, configs, want_fracs)
        assert x_num.dtype == np.float64 and x_cat.dtype == np.int64
        assert x_num.flags.c_contiguous and x_cat.flags.c_contiguous
        assert x_num.tobytes() == ref_num.tobytes()
        np.testing.assert_array_equal(x_cat, ref_cat)
    assert encode_batch(curve, configs, fracs)[0][:, -1].tolist() == fracs
    for cfg, frac in zip(configs, fracs):
        assert list(plain.canonicalize(cfg)) == reference_slots(plain, cfg, None)
        assert list(curve.canonicalize(cfg, frac)) == reference_slots(curve, cfg, frac)

    x_num, x_cat = encode_batch(plain, [])
    assert x_num.shape == (0, len(plain.numerical_fields()))
    assert x_cat.shape == (0, len(plain.categorical_fields()))


def test_encode_batch_checks_each_frac():
    configs = mixed_configs()[:2]
    plain = Schema.default()
    curve = Schema.default(include_frac=True)
    for schema, fracs in [(plain, [0.5, 0.5]),      # plain schema carries no frac
                          (curve, [None, 0.5]),     # curve schema needs every one
                          (curve, [0.0, 0.5]),
                          (curve, [0.5, 1.5])]:
        with pytest.raises(SchemaError):
            encode_batch(schema, configs, fracs)
    with pytest.raises(ValueError):
        encode_batch(curve, configs, [0.5])


def test_encode_batch_refuses_what_the_per_row_encoder_refuses():
    schema = Schema.default()
    good = [make_config(), make_config(min_lr=2e-4, min_lr_ratio=0.2)]
    for cfg, fault in REFUSED_CONFIGS:
        with pytest.raises(SchemaError, match=f"^{re.escape(fault)}$"):
            reference_slots(schema, cfg, None)
        for batch in ([cfg], good + [cfg] + good, [cfg, cfg]):
            with pytest.raises(SchemaError, match=f"^{re.escape(fault)}$"):
                encode_batch(schema, batch)
    # of two refused rows, the first is named, whichever of its fields is at fault
    for (first, fault), (second, _) in itertools.permutations(REFUSED_CONFIGS, 2):
        with pytest.raises(SchemaError, match=f"^{re.escape(fault)}$"):
            encode_batch(schema, good + [first, second])


def test_encode_batch_canonicalizes_each_config_object_once(monkeypatch):
    configs = mixed_configs()
    curve = Schema.default(include_frac=True).with_vocab_from(configs)
    # as a curve's rows come: each object repeated with its own fracs, plus an
    # equal copy that is a distinct object
    rows = [configs[i % len(configs)] for i in range(4 * len(configs))]
    rows.append(dataclasses.replace(configs[0]))
    fracs = [(i % 9 + 1) / 9 * (1.0 if i % 2 else 0.37) for i in range(len(rows))]
    ref_num, ref_cat = per_row_encode(curve, rows, fracs)

    calls = []
    field_values = Schema._field_values
    monkeypatch.setattr(Schema, "_field_values",
                        lambda self, c: calls.append(c) or field_values(self, c))
    x_num, x_cat = encode_batch(curve, rows, fracs)
    assert len(calls) == len(configs) + 1
    assert x_num.tobytes() == ref_num.tobytes()
    assert x_cat.tobytes() == ref_cat.tobytes()
    assert x_num[:, -1].tolist() == fracs


def test_encode_batch_checks_the_frac_of_every_repeated_row():
    cfg = make_config()
    curve = Schema.default(include_frac=True)
    for bad in (0.0, 1.5, None):
        with pytest.raises(SchemaError):
            encode_batch(curve, [cfg, cfg, cfg], [0.5, 1.0, bad])
    with pytest.raises(SchemaError):
        encode_batch(Schema.default(), [cfg, cfg], [None, 0.5])
