"""Running the verification suites, and machine-readable reports.

`run_suite` runs the checks that `properties.suite_checks` lists for a
suite, each timed and with a crash recorded as a failure.  A Report is a
JSON-serializable record of the run: one record per check (id, status,
detail, wall time), plus toolkit version, the hash of the group configs,
and the RNG seed, so runs are replayable bit-for-bit.  This module also
resolves the group-config directory and loads the configs.
"""

import hashlib
import json
import os
import time
from functools import lru_cache, partial

from . import __version__ as VERSION
from . import configs as _configs_pkg
from .moebius import load_group_config
from .properties import GROUP_NAMES, SUITES, suite_checks

ENV_CONFIG_DIR = "EQUIOPS_CONFIG_DIR"


def config_dir(override=None):
    """Directory holding the group configs: flag > env var > packaged."""
    if override:
        return override
    env = os.environ.get(ENV_CONFIG_DIR)
    if env:
        return env
    return os.path.dirname(_configs_pkg.__file__)


def config_path(name, override=None):
    return os.path.join(config_dir(override), name + ".config")


def config_hash(override=None):
    digest = hashlib.sha256()
    for name in GROUP_NAMES:
        path = config_path(name, override)
        with open(path, "rb") as handle:
            digest.update(name.encode())
            digest.update(handle.read())
    return digest.hexdigest()


class CheckRecord:
    __slots__ = ("check_id", "status", "detail", "seconds")

    def __init__(self, check_id, status, detail, seconds):
        self.check_id = check_id
        self.status = status
        self.detail = detail
        self.seconds = seconds

    def to_dict(self):
        return {"id": self.check_id,
                "status": "pass" if self.status else "fail",
                "detail": self.detail,
                "seconds": round(self.seconds, 4)}


class Report:
    __slots__ = ("suite", "checks", "version", "confighash", "seed")

    def __init__(self, suite, checks, confighash, seed):
        self.suite = suite
        self.checks = sorted(checks, key=lambda c: c.check_id)
        self.version = VERSION
        self.confighash = confighash
        self.seed = seed

    @property
    def passed(self):
        return all(c.status for c in self.checks)

    def to_dict(self):
        return {"suite": self.suite,
                "status": "pass" if self.passed else "fail",
                "version": self.version,
                "config_hash": self.confighash,
                "seed": self.seed,
                "checks": [c.to_dict() for c in self.checks]}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def emit_report(report, path):
    if not report.suite:
        raise ValueError("empty suite name")
    with open(path, "w") as handle:
        handle.write(report.to_json())
        handle.write("\n")
    return path


def _run_check(check_id, check):
    """Run and time one check; a crashed check, or one whose verdict is not
    a bool, is a failed check."""
    start = time.perf_counter()
    try:
        ok, detail = check()
    except Exception as exc:
        ok, detail = False, "error: %r" % (exc,)
    if type(ok) is not bool:
        ok, detail = False, "error: verdict is %s, not bool" % type(ok).__name__
    return CheckRecord(check_id, ok, str(detail),
                       time.perf_counter() - start)


def load_config(name, cfg_dir=None):
    """The validated GroupConfig of a group, from `config_dir(cfg_dir)`."""
    return load_group_config(config_path(name, cfg_dir))


def run_suite(name, seed=0, order=10, count=None, cfg_dir=None):
    """Execute one named suite (or 'all') and return a Report; each group
    config is loaded at most once."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (name, ", ".join(SUITES)))
    configs = lru_cache(maxsize=None)(partial(load_config, cfg_dir=cfg_dir))
    records = [_run_check(check_id, check) for check_id, check
               in suite_checks(name, configs, seed, order, count)]
    return Report(name, records, config_hash(cfg_dir), seed)
