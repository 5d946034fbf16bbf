"""File formats: each has one writer, and these pin the bytes it writes."""

import hashlib

import pytest

from losscast.cli import _write_csv, _write_jsonl, main
from losscast.ingest import write_json


def test_write_json_writes_an_indented_key_sorted_document(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": [1, 2.5, None], "a": {"z": True, "y": "é"}, "c": 1e-05, "d": []})
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "y": "\\u00e9",\n    "z": true\n  },\n  "b": [\n    1,\n'
        b'    2.5,\n    null\n  ],\n  "c": 1e-05,\n  "d": []\n}\n')


def test_write_jsonl_writes_one_compact_key_sorted_value_per_line(tmp_path):
    path = tmp_path / "lines.jsonl"
    n = _write_jsonl(path, iter([{"b": 1, "a": [0.1, "x"]}, {"k": None, "e": "é"}, 3.0]))
    assert n == 3
    assert path.read_bytes() == b'{"a":[0.1,"x"],"b":1}\n{"e":"\\u00e9","k":null}\n3.0\n'


def test_write_csv_writes_a_header_then_each_value_as_its_repr(tmp_path):
    path = tmp_path / "surface.csv"
    _write_csv(path, ["peak_lr", "batch_size", "loss"],
               iter([(0.001, 256.0, 2.5), (1e-05, 32, float("nan")), (0.1, 2048.0, 1 / 3)]))
    assert path.read_bytes() == (
        b"peak_lr,batch_size,loss\r\n0.001,256.0,2.5\r\n1e-05,32,nan\r\n"
        b"0.1,2048.0,0.3333333333333333\r\n")


SYNTH_FIRST_LINE = (
    b'{"batch_size":166.6074985402174,"beta1":0.9,"beta2":0.95,"data_size_d":10.0,'
    b'"epsilon":8.0,"final_loss":4.003050413694106,"finished":true,"hidden_dim":512,'
    b'"lr_schedule":"cosine","max_grad_norm":1.0,"min_lr_ratio":0.1,"model_size_n":130.0,'
    b'"num_heads":8,"num_layers":12,"optimizer":"adamw","peak_lr":0.0005360787036574208,'
    b'"run_id":"synth-00000","source":"synthetic","total_steps":7327,"warmup_ratio":0.01,'
    b'"weight_decay":0.03}\n')

SYNTH_SIDECAR = (
    b'{\n  "a": 6.2,\n  "alpha": 0.32,\n  "b": 1.8,\n  "beta": 0.28,\n  "bs_d": 96.0,\n'
    b'  "bs_gamma": 0.5,\n  "curvature": [\n    [\n      0.025,\n      0.004\n    ],\n'
    b'    [\n      0.004,\n      0.01\n    ]\n  ],\n  "curve_bump_amp": 0.1,\n'
    b'  "curve_decay_p": 1.8,\n  "e": 1.7,\n  "lr_alpha": -0.25,\n  "lr_beta": 0.1,\n'
    b'  "lr_c": 0.0032,\n  "noise_sigma": 0.005,\n  "optimizer_effects": {\n'
    b'    "adamw": {\n      "offset": 0.0,\n      "wd_center": 0.1,\n      "wd_curv": 0.02\n'
    b'    },\n    "lion": {\n      "offset": 0.015,\n      "wd_center": 0.6,\n'
    b'      "wd_curv": 0.02\n    }\n  }\n}\n')


def test_synth_writes_its_first_run_and_oracle_sidecar_as_pinned(tmp_path):
    out = tmp_path / "raw.jsonl"
    assert main(["synth", "--output", str(out), "--seed", "7"]) == 0
    with open(out, "rb") as fh:
        assert fh.readline() == SYNTH_FIRST_LINE
        assert sum(1 for _ in fh) == 3023
    assert (tmp_path / "raw.jsonl.oracle.json").read_bytes() == SYNTH_SIDECAR


@pytest.mark.parametrize("argv, digest", [
    ([], "92a9e01339363dae7447ef01061a168869994c20e2f7c72bea1056e78620c678"),
    (["--curves"], "7a6008703a383083189b3ed65a19627b712281dd1cce6fe6ba513cadbdb39849"),
], ids=["final", "curves"])
def test_synth_writes_the_whole_dataset_as_pinned(tmp_path, argv, digest):
    out = tmp_path / "raw.jsonl"
    assert main(["synth", "--output", str(out), "--seed", "7", *argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
