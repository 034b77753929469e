"""Workload generators matching the paper's evaluation drivers.

- :mod:`repro.workloads.fio` — the Fio micro-benchmark (§V-A): I/O
  size sweeps, thread counts, 50/50 random read/write mixes;
- :mod:`repro.workloads.ftp` — the bulk FTP transfer of §V-B2;
- :mod:`repro.workloads.postmark` — PostMark's small-file mail-server
  mix (§V-B2, Fig. 11);
- :mod:`repro.workloads.oltp` — Sysbench-style OLTP against a
  MySQL-like page store (§V-B3, Figs. 12/13);
- :mod:`repro.workloads.malware` — the Ganiw.a backdoor installation
  trace of Table III;
- :mod:`repro.workloads.hostile` — adversarial bytes aimed at the
  semantic monitor's reconstruction (fuzz corpus + workload driver);
- :mod:`repro.workloads.stats` — the latency samples and per-second
  timelines the drivers report into.
"""

from repro.workloads.fio import FioConfig, FioJob, FioResult
from repro.workloads.ftp import FtpResult, FtpTransfer
from repro.workloads.hostile import HostileWorkload, hostile_block, hostile_dirent_corpus
from repro.workloads.postmark import PostmarkConfig, PostmarkJob, PostmarkResult
from repro.workloads.oltp import MySqlServer, OltpClient, OltpConfig
from repro.workloads.stats import LatencyStats, Timeline, percentile
from repro.workloads.malware import GANIW_STEPS, run_ganiw_install, setup_system_image

__all__ = [
    "FioConfig",
    "FioJob",
    "FioResult",
    "FtpResult",
    "FtpTransfer",
    "GANIW_STEPS",
    "HostileWorkload",
    "LatencyStats",
    "MySqlServer",
    "OltpClient",
    "OltpConfig",
    "PostmarkConfig",
    "PostmarkJob",
    "PostmarkResult",
    "Timeline",
    "hostile_block",
    "hostile_dirent_corpus",
    "percentile",
    "run_ganiw_install",
    "setup_system_image",
]
