"""Run manifests: who produced this number, under exactly what config.

A manifest is the provenance stamp attached to every baseline file and
``BENCH_*.json`` report.  It has two parts with different stability
contracts:

* the **deterministic part** — the resolved :class:`~repro.config.RunConfig`
  (values, fingerprint, per-field provenance) — is byte-stable under a
  fixed configuration: recording the same baseline twice on any host
  yields the identical deterministic subset, and
  :func:`manifest_fingerprint` hashes exactly that subset so comparability
  is a string equality;
* the **host part** — git sha, interpreter, platform, per-phase wall
  clock, peak RSS — varies run to run and exists for forensics, never for
  gating.  Tolerance policy in :mod:`repro.observe.baseline` treats
  everything under ``host`` as informational.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from typing import Dict, Mapping, Optional, Union

from repro.config import ResolvedConfig, RunConfig, resolve_config
from repro.telemetry.timers import peak_rss_kb

MANIFEST_SCHEMA = "repro-manifest-v1"

#: Keys of the deterministic manifest subset (everything else is host
#: forensics and excluded from :func:`manifest_fingerprint`).
DETERMINISTIC_KEYS = ("schema", "config", "config_fingerprint",
                      "provenance")


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit sha, or None outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def run_manifest(resolved: Union[ResolvedConfig, RunConfig, None] = None,
                 phase_seconds: Optional[Mapping[str, float]] = None,
                 ) -> dict:
    """Build the manifest for a run under ``resolved``.

    ``resolved`` may be a full :class:`~repro.config.ResolvedConfig`
    (provenance included), a bare :class:`~repro.config.RunConfig`
    (an explicit :class:`~repro.session.Session` config — provenance is
    reported as ``explicit`` for every field), or None to resolve the
    current environment.  ``phase_seconds`` carries the producer's
    per-phase wall clock (aggregated simulator phases, or bench pass
    walls) into ``host.phase_seconds``.
    """
    if resolved is None:
        resolved = resolve_config()
    if isinstance(resolved, RunConfig):
        config = resolved
        provenance = {field: "explicit"
                      for field in RunConfig.field_names()}
    else:
        config = resolved.config
        provenance = dict(resolved.provenance)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "config": config.to_dict(),
        "config_fingerprint": config.fingerprint(),
        "provenance": provenance,
        "host": {
            "git_sha": git_revision(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "peak_rss_kb": peak_rss_kb(),
            "phase_seconds": {name: round(float(seconds), 6)
                              for name, seconds in
                              sorted((phase_seconds or {}).items())},
        },
    }
    return manifest


def deterministic_subset(manifest: Mapping) -> Dict:
    """The byte-stable part of a manifest (config identity, no host)."""
    return {key: manifest[key] for key in DETERMINISTIC_KEYS
            if key in manifest}


def manifest_fingerprint(manifest: Mapping) -> str:
    """sha256 of the deterministic subset — the comparability key.

    Two runs are comparable (same regions, same caches, same variant
    defaults) iff their manifest fingerprints are equal; host facts never
    contribute.
    """
    canonical = json.dumps(deterministic_subset(manifest), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
