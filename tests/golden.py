"""Golden SHA-256 hashes of the CLI artifacts on small pinned configs.

Every command runs in-process on a small config: ``verify-ldp`` and
``short-time`` on the two benchmark configs at their tiny sizes (copied
here, at seeds 1 and 7), and ``simulate``, ``rate``, ``terminal-rate`` and
``kernel-table`` on a two-factor d = 2 model.  Every artifact except
``manifest.json`` (which holds paths and the platform) is hashed.

``golden_artifacts.json`` holds the hashes and the environment they were
made in: python, numpy, scipy and the BLAS, as ``manifest.json`` records
them.  ``test_golden.py`` recomputes the hashes in that environment and
skips elsewhere.  A change that moves an artifact on purpose regenerates
the file with

    PYTHONPATH=src python tests/golden.py

and lists the changed artifacts in CHANGES.md.
"""

import hashlib
import json
import os
import pathlib
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_artifacts.json"

# bench/configs/ldp_tilted.ini at its tiny size (n_steps 16, 8,192 paths)
_LDP_TILTED = """
[grid]
horizon = 1.0
n_steps = 16

[kernel.1]
family = riemann_liouville
hurst = 0.3
scale = 1.0

[model.volatility]
family = exp_linear
amplitude = 0.3
weights = 1.0
rho = -0.5

[verify-ldp]
threshold = 1.0
epsilons = 0.4 0.3 0.25 0.2
n_paths = 8192
estimator = tilted

[run]
seed = 1
"""

# bench/configs/short_time_fou.ini at its tiny size (n_steps 8, two etas,
# 1,000 paths, refine 2)
_SHORT_TIME_FOU = """
[grid]
horizon = 1.0
n_steps = 8

[kernel.1]
family = fractional_ou
hurst = 0.3
scale = 1.0
mean_reversion = 1.0

[model.volatility]
family = exp_linear
amplitude = 0.4
weights = 0.3
rho = -0.6

[schedule]
rule = self_similar
eta = 0.2 0.1

[short-time]
n_paths = 1000
refine = 2

[run]
seed = 1
"""

# two factors (one rough, one fractional OU), d = 2, every coefficient
# family
_TWO_FACTOR = """
[grid]
horizon = 1.0
n_steps = 8

[kernel.1]
family = riemann_liouville
hurst = 0.3
scale = 1.0

[kernel.2]
family = fractional_ou
hurst = 0.4
scale = 0.8
mean_reversion = 1.5

[model]
d = 2

[model.mu]
family = constant
values = 0.05, -0.02

[model.sigma]
family = exp_linear
amplitude = 0.3, 0.0, 0.08, 0.25
weights = 0.8, 0.1, 0.0, 0.0, 0.1, 0.0, 0.2, 0.6

[model.sigma_tilde]
family = affine
constant = -0.12, 0.04, 0.03, -0.1
linear = 0.02, 0.0, 0.0, 0.01, 0.01, 0.0, 0.0, 0.02

[simulate]
n_paths = 40
epsilon = 0.5
emit_drivers = true

[rate]
functional = i_z
z = 0.3, -0.2

[terminal-rate]
z = 0.4, 0.1

[optimizer]
n_starts = 2

[run]
seed = 3
"""

# (run name, command, config text, seed)
RUNS = (
    ("verify-ldp-1", "verify-ldp", _LDP_TILTED, 1),
    ("verify-ldp-7", "verify-ldp", _LDP_TILTED, 7),
    ("short-time-1", "short-time", _SHORT_TIME_FOU, 1),
    ("short-time-7", "short-time", _SHORT_TIME_FOU, 7),
    ("simulate", "simulate", _TWO_FACTOR, 3),
    ("rate", "rate", _TWO_FACTOR, 3),
    ("terminal-rate", "terminal-rate", _TWO_FACTOR, 3),
    ("kernel-table", "kernel-table", _TWO_FACTOR, 3),
)


def golden_environment() -> dict:
    """The fields of ``manifest.json`` that the hashes depend on."""
    from volldp.cli import environment

    return {key: environment()[key] for key in ("python", "numpy", "scipy", "blas")}


def artifact_hashes(work_dir) -> dict:
    """{"<run>/<artifact>": SHA-256} of every run in ``RUNS``."""
    from volldp.cli import main

    hashes = {}
    for name, command, text, seed in RUNS:
        config = os.path.join(work_dir, f"{name}.ini")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(work_dir, name)
        code = main([command, "--config", config, "--seed", str(seed),
                     "--out", out])
        if code != 0:
            raise RuntimeError(f"{name} exited with {code}")
        for artifact in sorted(os.listdir(out)):
            if artifact == "manifest.json":
                continue
            with open(os.path.join(out, artifact), "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            hashes[f"{name}/{artifact}"] = digest
    return hashes


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        hashes = artifact_hashes(work_dir)
    payload = {"environment": golden_environment(), "artifacts": hashes}
    GOLDEN.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
