"""Shipped polyhedral group configurations: loading and validation."""

import json
import os
import re

import pytest

from equiops.moebius import ConfigError, load_group_config
from equiops.parsing import parse_cyclo
from equiops.properties import GROUP_NAMES, SYZYGIES, check_syzygy
from equiops.report import config_path


@pytest.fixture(params=sorted(GROUP_NAMES))
def config(request):
    n, _ = SYZYGIES[request.param]
    return load_group_config(config_path(request.param)), n


def test_generators_unimodular(config):
    cfg, _ = config
    for gen in cfg.generators:
        assert gen.det() == parse_cyclo("1")


def test_form_count_and_names(config):
    cfg, n = config
    names = {f.name for f in cfg.forms}
    assert names == {"v%d" % n, "f%d" % n, "e%d" % n}
    assert cfg.vertex_form.name == "v%d" % n


def test_syzygy(config):
    cfg, _ = config
    assert check_syzygy(cfg) == (
        True, "syzygy e^2 - f^3 = c v^n for %s" % cfg.name)


def test_characters_are_roots_of_unity(config):
    cfg, _ = config
    for form in cfg.forms:
        for chi in form.characters:
            assert chi.is_root_of_unity()


def test_validation_rejects_corrupt_character(tmp_path):
    with open(config_path("A4")) as handle:
        raw = json.load(handle)
    raw["invariants"][0]["characters"][0] = "2"
    bad = tmp_path / "A4.config"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_group_config(os.fspath(bad))


def test_validation_rejects_non_invariant_poly(tmp_path):
    with open(config_path("A4")) as handle:
        raw = json.load(handle)
    raw["invariants"][0]["poly"] = "z^3 + z"
    bad = tmp_path / "A4.config"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_group_config(os.fspath(bad))


def test_env_var_config_dir(tmp_path, monkeypatch):
    import shutil
    from equiops.report import config_dir
    for name in GROUP_NAMES:
        shutil.copy(config_path(name), tmp_path / ("%s.config" % name))
    monkeypatch.setenv("EQUIOPS_CONFIG_DIR", os.fspath(tmp_path))
    assert config_dir() == os.fspath(tmp_path)
    cfg = load_group_config(config_path("A5"))
    assert cfg.name == "A5"


def _drop(key):
    return lambda raw: raw["invariants"][0].pop(key)


def _set(path, value):
    def corrupt(raw):
        *head, last = path
        for key in head:
            raw = raw[key]
        raw[last] = value
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _drop("poly"), _drop("weight"), _drop("name"),
    lambda raw: raw.pop("generators"),
    _set(("invariants", 0), "v3"),
    _set(("invariants", 0, "weight"), "abc"),
    _set(("invariants", 0, "weight"), 4),
    _set(("invariants", 0, "poly"), 7),
    _set(("invariants", 0, "poly"), "z^3 +"),
    _set(("invariants", 0, "characters"), "1"),
    _set(("generators",), "zeta^20"),
    _set(("generators", 0), 5),
    _set(("generators", 0), ["1", "0", "0"]),
    _set(("generators", 0), ["1", "0", "0", "0"]),
    _set(("generators", 0, 0), "1/0"),
    _set(("cyclotomic_order",), 0),
    _set(("cyclotomic_order",), -120),
    _set(("cyclotomic_order",), "abc"),
    _set(("cyclotomic_order",), 120.5),
    _set(("name",), ["A4"]),
    "{}", "[1, 2]", "{", "",
], ids=["no poly", "no weight", "no name", "no generators", "row not an object",
        "weight not an int", "weight above the degree", "poly not a string",
        "poly unparsable", "characters not a list", "generators not a list",
        "generator not a list", "three entries", "singular generator", "entry 1/0",
        "order 0", "negative order", "order abc", "order not an int",
        "name not a string", "empty object", "array", "not JSON", "empty file"])
def test_malformed_configs_raise_config_error_naming_the_file(tmp_path, corrupt):
    # corrupt edits the shipped A4 config in place, or is the file's text
    if isinstance(corrupt, str):
        text = corrupt
    else:
        with open(config_path("A4")) as handle:
            raw = json.load(handle)
        corrupt(raw)
        text = json.dumps(raw)
    bad = tmp_path / "A4.config"
    bad.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(str(tmp_path))):
        load_group_config(os.fspath(bad))
