"""Statistics, fingerprints and host provenance for the benchmark.

Pure helpers with no dependency on the ``repro`` package, so the tests
can exercise the percentile and fingerprint rules on synthetic data.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one slow outlier cannot be the whole tail.
TAIL_MIN_BEYOND = 10


def tail_percentile(count: int) -> Optional[int]:
    """Highest whole percentile with >= ``TAIL_MIN_BEYOND`` samples beyond.

    With nearest-rank percentiles the ``p``-th percentile of ``count``
    samples is the sample at rank ``ceil(p * count / 100)``; the samples
    ranked after it are "beyond" it.  Returns None when that percentile
    would not lie above the median (fewer than ``2 * TAIL_MIN_BEYOND``
    samples): such a run has no tail to speak of.
    """
    p = math.floor(100.0 - 100.0 * TAIL_MIN_BEYOND / max(count, 1))
    # Guard float rounding at exact boundaries.
    while p > 50 and count - math.ceil(p * count / 100.0) < TAIL_MIN_BEYOND:
        p -= 1
    return p if p > 50 else None


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (a value that was measured)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, Optional[int]]:
    """(tail value, percentile); the maximum when no percentile qualifies."""
    p = tail_percentile(len(values))
    if p is None:
        return max(values), None
    return nearest_rank(values, p), p


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return peak * scale / (1024.0 * 1024.0)


def allocation_fingerprint(
    bitwidths: Mapping[str, int],
    sigma: float,
    xi: Mapping[str, float],
) -> Dict[str, str]:
    """Bitwidths, exact sigma and a digest of xi: the bit-identity surface.

    Floats are written with ``float.hex`` so any change in the last bit
    of sigma or of any xi share changes the fingerprint.
    """
    xi_text = json.dumps(
        {name: float(value).hex() for name, value in xi.items()},
        sort_keys=True,
    )
    return {
        "bitwidths": ",".join(
            f"{name}={int(bits)}" for name, bits in bitwidths.items()
        ),
        "sigma": float(sigma).hex(),
        "xi_sha256": hashlib.sha256(xi_text.encode("utf-8")).hexdigest()[:16],
    }


def _blas_info() -> Dict[str, str]:
    import numpy as np

    info: Dict[str, str] = {"name": "unknown", "version": "unknown"}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["name"] = str(blas.get("name", "unknown"))
        info["version"] = str(blas.get("version", "unknown"))
    except (TypeError, KeyError, AttributeError):
        pass
    threads = (
        os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS")
    )
    # OpenBLAS starts one thread per online core unless told otherwise.
    info["threads"] = threads or f"default ({os.cpu_count()})"
    return info


def host_provenance() -> Dict[str, object]:
    """What a later reader needs to tell whether a run is comparable."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
    }
