"""Model assembly tests: output contracts, variant manifests, serialization,
and end-to-end gradients on a tiny configuration."""

import hashlib
import json
import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

from hybridgnn import autodiff as ad
from hybridgnn import model as mdl
from hybridgnn.training import batch_loss

TINY = dict(
    n_channels=4, feature_dim=4, proj_dim=4, out_dim=3, steps=2, region_steps=1,
    n_regions=2, extractor_layers=((5, 2, 1, 8), (3, 2, 8, 4)),
)


def tiny_config(variant="full", **over):
    return mdl.ModelConfig(variant=variant, **{**TINY, **over})


def groups(cfg):
    return {name.split(".")[0] for name in mdl.init_model(cfg, 0)}


def test_probs_are_distributions_for_all_variants():
    rng = np.random.default_rng(0)
    for variant in mdl.VARIANTS:
        cfg = tiny_config(variant)
        params = mdl.init_model(cfg, seed=1)
        probs, _ = mdl.forward_batch(rng.normal(size=(3, 4, 32)), params, cfg)
        assert probs.value.shape == (3, 2)
        assert np.all(probs.value >= 0)
        npt.assert_allclose(probs.value.sum(axis=1), 1.0, atol=1e-12)


def test_single_segment_forward_matches_batched():
    rng = np.random.default_rng(1)
    for variant in mdl.VARIANTS:
        cfg = tiny_config(variant)
        params = mdl.init_model(cfg, seed=2)
        segs = rng.normal(size=(3, 4, 32))
        stacked, diag = mdl.forward_batch(segs, params, cfg)
        for i in range(3):
            probs, d = mdl.forward(segs[i], params, cfg)
            # gemm kernels differ across batch sizes, so only near-exact
            npt.assert_allclose(probs, stacked.value[i], atol=1e-12)
            if diag["adj_inst"] is not None:
                npt.assert_allclose(d["adj_inst"], diag["adj_inst"].value[i], atol=1e-12)


def test_diagnostics_presence_per_variant():
    rng = np.random.default_rng(2)
    seg = rng.normal(size=(1, 4, 32))
    expect_assign = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 2, "full": 1}
    for variant in mdl.VARIANTS:
        cfg = tiny_config(variant)
        _probs, diag = mdl.forward_batch(seg, mdl.init_model(cfg, 3), cfg)
        has_inst = variant != "a"
        assert (diag["adj_inst"] is not None) == has_inst
        assert len(diag["assign"]) == expect_assign[variant]


def test_variant_manifests():
    assert groups(tiny_config("a")) == {"extractor", "common_adj", "cgnn", "head"}
    assert tiny_config("a").head_input_dim == 3
    groups_full = groups(tiny_config("full"))
    assert "pool_inst" in groups_full and "pool_common" not in groups_full
    assert tiny_config("full").head_input_dim == 6
    groups_e = groups(tiny_config("e"))
    assert "pool_inst" in groups_e and "pool_common" in groups_e


# sha256 of the concatenated tensor bytes of init_model(tiny_config(variant,
# classifier_hidden=hidden), seed=7): the init draws are pinned, so trained
# models and params files stay reproducible across changes to init_model
INIT_SHA256 = {
    ("a", 0): "84f42780a2994eac6f7ca02faccde44224b07a045575e1d0a531dea0fdb7dee3",
    ("b", 0): "5151ffc01ab597d5cd4ad59eedca0c457c08bbee999ae93e8a8aedcba16ef47e",
    ("c", 0): "8071ccba1888799c02244bc2b491748aa090204bb096895ae8152a4263c63081",
    ("d", 0): "2ad1bf57077db5cfbe9a35499b19c1ff66678edc7017ee72a1bade76337a0266",
    ("e", 0): "4744fe4b1ee19f8535f8e1099366c9bc954e93d6f89d227fb19ab2978326306b",
    ("full", 0): "dd27e1ff55e77f19d6ff4632bcd364d5c515b4dafcadef4280099c1ecdf13d35",
    ("a", 3): "7a388040c6fa1cdcc127f298a3f01c0a4ce4c721143765a6e802d155996b6bb7",
    ("b", 3): "838f30fbbbb182f8acf0b8a211b3a4ce121042f1f6530ec7bb532b706a0ddf90",
    ("c", 3): "665b51f7a706ddb0743a740f5d34ec284226473157d81f1fbd5a2c6038334036",
    ("d", 3): "ac0d4f17e06f0b2a1629beb6e3f70078af26630c2c28bbfd7969e32d08e40f7d",
    ("e", 3): "25fcf12bacb2445623fdb517c8d5cc559349d22c51506f0b5d084a4614bc2c29",
    ("full", 3): "4178c9d4ae2c29fefa1bfc6d8d1cf84494c12001940b54720d611e81acfd62fb",
}


@pytest.mark.parametrize("variant, hidden", sorted(INIT_SHA256))
def test_init_draws_are_pinned(variant, hidden):
    cfg = tiny_config(variant, classifier_hidden=hidden)
    params = mdl.init_model(cfg, seed=7)
    assert [(n, t.value.shape) for n, t in params.items()] == list(mdl.param_shapes(cfg).items())
    digest = hashlib.sha256(b"".join(t.value.tobytes() for t in params.values())).hexdigest()
    assert digest == INIT_SHA256[variant, hidden]


def test_variant_e_pools_are_independent():
    params = mdl.init_model(tiny_config("e"), seed=4)
    assert params["pool_inst.proj"] is not params["pool_common.proj"]
    assert not np.array_equal(params["pool_inst.proj"].value, params["pool_common.proj"].value)


def test_union_of_variant_groups_covers_full_parameter_set():
    union = set()
    for variant in mdl.VARIANTS:
        union |= groups(tiny_config(variant))
    assert union == {
        "extractor", "common_adj", "cgnn", "inst_adj", "ignn",
        "pool_inst", "pool_common", "head",
    }


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        tiny_config("z")


def test_unknown_inst_softmax_axis_rejected():
    with pytest.raises(ValueError, match="inst_softmax_axis must be 'col' or 'row', got 'diag'"):
        tiny_config(inst_softmax_axis="diag")


def test_channel_count_mismatch_rejected():
    cfg = tiny_config()
    params = mdl.init_model(cfg, 5)
    with pytest.raises(ValueError, match="segments"):
        mdl.forward_batch(np.zeros((2, 5, 32)), params, cfg)


def test_variant_b_probs_permutation_invariant():
    # individualized-only pipeline with the node-mean head
    rng = np.random.default_rng(6)
    cfg = tiny_config("b", n_channels=6)
    params = mdl.init_model(cfg, seed=7)
    seg = rng.normal(size=(6, 32))
    base, _ = mdl.forward(seg, params, cfg)
    for _ in range(10):
        probs, _ = mdl.forward(seg[rng.permutation(6)], params, cfg)
        npt.assert_allclose(probs, base, atol=1e-10)


def test_full_model_gradients_tiny_config():
    rng = np.random.default_rng(8)
    cfg = tiny_config("full")
    seg = rng.normal(size=(1, 4, 32))
    arrays = [n.value.copy() for n in mdl.init_model(cfg, seed=9).values()]

    def f(leaves):
        probs, diag = mdl.forward_batch(seg, mdl.bind_params(cfg, leaves), cfg)
        return batch_loss(probs, np.array([1]), diag["assign"], lam=1e-3)

    assert ad.gradient_check(f, arrays, eps=1e-5) < 1e-4


def test_bind_params_validates_count_and_shapes():
    cfg = tiny_config()
    nodes = [ad.param(n.value) for n in mdl.init_model(cfg, 10).values()]
    with pytest.raises(ValueError, match="tensors"):
        mdl.bind_params(cfg, nodes[:-1])
    bad = list(nodes)
    bad[0] = ad.param(np.zeros((1, 1, 1)))
    with pytest.raises(ValueError, match="shape"):
        mdl.bind_params(cfg, bad)


# --- parameter files ---------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    cfg = tiny_config("e")
    params = mdl.init_model(cfg, seed=11)
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, params, cfg)
    loaded, loaded_cfg = mdl.load_params(path)
    assert loaded_cfg.to_dict() == cfg.to_dict()
    assert list(loaded) == list(params)
    for name, node in params.items():
        npt.assert_array_equal(loaded[name].value, node.value)


def test_truncated_file_is_corrupt_not_partial(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 13), cfg)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 100])
    with pytest.raises(mdl.ParamsCorruptError):
        mdl.load_params(path)


def test_wrong_magic_and_version_are_distinct_errors(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 14), cfg)
    blob = bytearray(open(path, "rb").read())
    bad = bytes(b"XXXX") + bytes(blob[4:])
    open(path, "wb").write(bad)
    with pytest.raises(mdl.ParamsCorruptError):
        mdl.load_params(path)
    blob[4] = 99  # bump the version field
    open(path, "wb").write(bytes(blob))
    with pytest.raises(mdl.ParamsVersionError):
        mdl.load_params(path)


def _rewrite_header(path, edit):
    """Apply `edit` to the JSON header of a parameter file, payload untouched."""
    blob = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen].decode())
    edit(header)
    new_header = json.dumps(header).encode()
    open(path, "wb").write(blob[:8] + struct.pack("<Q", len(new_header)) + new_header + blob[16 + hlen :])


def test_tampered_shape_table_detected(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 15), cfg)
    _rewrite_header(path, lambda h: h["tensors"][0].update(shape=[1, 2, 3]))
    with pytest.raises(mdl.ParamsShapeError):
        mdl.load_params(path)


def test_trailing_bytes_are_corrupt(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 16), cfg)
    with open(path, "ab") as fh:
        fh.write(bytes(24))
    with pytest.raises(mdl.ParamsCorruptError, match="trailing"):
        mdl.load_params(path)


@pytest.mark.parametrize("index, shift", [(0, 8), (1, 8), (-1, -8)])
def test_non_contiguous_offsets_are_corrupt(tmp_path, index, shift):
    # a gap before the first tensor, a gap between tensors, an overlap
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 17), cfg)

    def shift_offset(header):
        header["tensors"][index]["offset"] += shift

    _rewrite_header(path, shift_offset)
    with pytest.raises(mdl.ParamsCorruptError, match="offset"):
        mdl.load_params(path)


def test_table_entry_missing_key_is_corrupt(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 18), cfg)
    _rewrite_header(path, lambda h: h["tensors"][2].pop("offset"))
    with pytest.raises(mdl.ParamsCorruptError, match="unreadable header"):
        mdl.load_params(path)


def test_unknown_inst_softmax_axis_in_file_is_corrupt(tmp_path):
    # the axis alters no tensor shape, so only the config check refuses it
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 20), cfg)
    _rewrite_header(path, lambda h: h["config"].update(inst_softmax_axis="diag"))
    with pytest.raises(mdl.ParamsCorruptError, match="inst_softmax_axis"):
        mdl.load_params(path)


# version-1 file written before the parameter shape spec existed; it must keep
# loading and saving to the same bytes
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "params_v1_tiny_e.bin")
V1_CONFIG = tiny_config("e", classifier_hidden=3)
V1_SEED = 2024


def test_v1_fixture_loads_bit_exact():
    loaded, cfg = mdl.load_params(V1_FIXTURE)
    assert cfg == V1_CONFIG
    fresh = mdl.init_model(V1_CONFIG, V1_SEED)
    assert list(loaded) == list(fresh)
    for name, node in fresh.items():
        assert loaded[name].value.tobytes() == node.value.tobytes()


def test_v1_fixture_bytes_reproduced_by_save(tmp_path):
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(V1_CONFIG, V1_SEED), V1_CONFIG)
    assert open(path, "rb").read() == open(V1_FIXTURE, "rb").read()


def test_config_validation_bounds():
    with pytest.raises(ValueError, match="n_regions"):
        tiny_config(n_regions=9)
    with pytest.raises(ValueError, match="steps"):
        tiny_config(steps=-1)
    with pytest.raises(ValueError, match="positive"):
        tiny_config(out_dim=0)
    # zero propagation steps is legal: single-term projection per branch
    cfg = tiny_config(steps=0, region_steps=0)
    names = list(mdl.init_model(cfg, 1))
    assert [n for n in names if n.startswith(("cgnn.", "pool_inst.region."))] == [
        "cgnn.0", "pool_inst.region.0",
    ]


def unchain_extractor(header, layer, spec):
    """Give extractor layer `layer` another spec, and its weight the matching
    shape; `spec` must keep the weight's size so the payload still fits."""
    header["config"]["extractor_layers"][layer] = list(spec)
    entry = next(t for t in header["tensors"] if t["name"] == f"extractor.{layer}.w")
    entry["shape"] = [spec[0], spec[2], spec[3]]


def test_unchained_extractor_in_file_is_corrupt(tmp_path):
    # embedded extractor layers that do not chain (8 -> 4) are refused at
    # load, not left to fail inside the convolution
    cfg = tiny_config()
    path = str(tmp_path / "params.bin")
    mdl.save_params(path, mdl.init_model(cfg, 19), cfg)
    _rewrite_header(path, lambda h: unchain_extractor(h, 1, (6, 2, 4, 4)))
    with pytest.raises(mdl.ParamsCorruptError, match="chain"):
        mdl.load_params(path)
