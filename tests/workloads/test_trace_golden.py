"""The trace generator's output, pinned by digest.

Every registry workload is built in both forms at two cold-stream
scales on the default ``GPUConfig()`` geometry, serialized canonically
and hashed with SHA-256.  Each digest must equal its entry in
``golden/traces.json``, so a generator change that moves any address,
latency, path or block field fails here, even where no simulation
golden happens to read it.

To regenerate the golden file after a deliberate generator change::

    PYTHONPATH=src python tests/workloads/test_trace_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Tuple

import pytest

from repro.core.config import GPUConfig
from repro.gpu.instruction import ComputeInstruction
from repro.workloads import TIMING_MISS_SCALE, get_workload, workload_names

GOLDEN = pathlib.Path(__file__).parent / "golden" / "traces.json"

#: (label, miss_scale) pairs every workload and form is built at.
SCALES: Tuple[Tuple[str, float], ...] = (
    ("unscaled", 1.0),
    ("timing", TIMING_MISS_SCALE),
)
FORMS = ("linear", "blocks")


def _linear_rows(per_core) -> List:
    return [
        [
            [
                trace.warp_id,
                [
                    ("c", instr.latency)
                    if isinstance(instr, ComputeInstruction)
                    else ("m", instr.addresses, instr.origins)
                    for instr in trace.instructions
                ],
            ]
            for trace in traces
        ]
        for traces in per_core
    ]


def _block_rows(per_core) -> List:
    return [
        [
            [
                block.block_id,
                block.num_warps,
                block.warp_width,
                [
                    [
                        sorted(region.path_programs.items()),
                        region.thread_paths,
                        sorted(region.thread_addresses.items()),
                    ]
                    for region in block.regions
                ],
            ]
            for block in blocks
        ]
        for blocks in per_core
    ]


def digest(name: str, form: str, miss_scale: float) -> str:
    """SHA-256 of one build's canonical JSON serialization."""
    workload = get_workload(name)
    config = GPUConfig()
    if form == "linear":
        rows = _linear_rows(workload.build_linear(config, miss_scale=miss_scale))
    else:
        rows = _block_rows(workload.build_blocks(config, miss_scale=miss_scale))
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cases() -> List[Tuple[str, str, str, float]]:
    """(id, workload, form, miss_scale) for every pinned build."""
    return [
        (f"{name}-{form}-{label}", name, form, scale)
        for name in workload_names()
        for form in FORMS
        for label, scale in SCALES
    ]


def record() -> Dict[str, str]:
    return {case_id: digest(name, form, scale)
            for case_id, name, form, scale in cases()}


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case_id,name,form,miss_scale",
    cases(),
    ids=[case[0] for case in cases()],
)
def test_trace_matches_golden(case_id, name, form, miss_scale):
    assert digest(name, form, miss_scale) == _golden()[case_id]


def test_golden_covers_every_build():
    assert sorted(_golden()) == sorted(case[0] for case in cases())


if __name__ == "__main__":
    digests = record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} trace digests to {GOLDEN}")
