"""What a workload hands back to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from common import Tracer


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    root: Path       #: checkout root (holds src/)
    out_dir: Path    #: benchmark output directory (git-ignored)
    work_dir: Path   #: per-run scratch files, removed at exit
    code: str        #: source digest of the program (common.source_digest)


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: wrong answers, each a one-line description
    mismatches: List[str] = field(default_factory=list)
    env: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    #: figures printed beside the result line: name -> (value, unit)
    notes: Dict[str, tuple] = field(default_factory=dict)
