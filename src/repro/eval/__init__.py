"""repro.eval — per-table/per-figure experiment drivers.

One driver per evaluation artifact of the paper:

========= ================================== =====================
function  reproduces                          renderer
========= ================================== =====================
table1    Table 1 (dynamic vs static text)   render_table1
fig5      Figure 5 (relative execution time) render_fig5
fig6      Figure 6 (HW miss rate vs size)    render_fig6
fig7      Figure 7 (SW miss rate vs size)    render_fig7
fig8      Figure 8 (evictions/s vs memory)   render_fig8
fig9      Figure 9 (dynamic footprint)       render_fig9
netcost   §2.4 60-byte chunk overhead        render_netcost
tagspace  §2.2 11-18% tag overhead           render_tagspace
extra_instruction_ablation  §2.2 "+2 insns"  render_ablation
dcache_eval  §3 / Fig 10 D-cache design      render_dcache
========= ================================== =====================
"""

from .common import (
    TraceRun,
    clear_trace_cache,
    native_trace,
    set_trace_cache_dir,
    sweep_stale_cache_versions,
    trace_cache_dir,
)
from .dcache_eval import DCacheRow, dcache_eval, render_dcache
from .fig5 import Fig5Bar, PAPER_FIG5, fig5, render_fig5
from .fig6 import Fig6Curve, fig6, render_fig6
from .fig7 import Fig7Curve, fig7, render_fig7
from .fig8 import (
    Fig8PolicyRow,
    Fig8Series,
    fig8,
    fig8_policy_ablation,
    render_fig8,
)
from .fig9 import Fig9Bar, PAPER_FIG9, fig9, render_fig9
from .misc import (
    AblationRow,
    NetCostResult,
    extra_instruction_ablation,
    netcost,
    render_ablation,
    render_netcost,
    render_tagspace,
    tagspace,
)
from .parallel import fan_workloads, prewarm_traces
from .render import ascii_table, fmt_bytes, series_plot
from .report import generate_report, section_titles
from .table1 import PAPER_TABLE1, Table1Row, render_table1, table1
from .tcache_replay import (
    ReplayResult,
    chunk_entry_sequence,
    replay_tcache,
    sweep_tcache,
)

__all__ = [
    "AblationRow", "DCacheRow", "Fig5Bar", "Fig6Curve", "Fig7Curve",
    "Fig8PolicyRow", "Fig8Series", "Fig9Bar",
    "NetCostResult", "PAPER_FIG5", "PAPER_FIG9",
    "PAPER_TABLE1", "ReplayResult", "Table1Row", "TraceRun",
    "ascii_table", "chunk_entry_sequence", "clear_trace_cache",
    "dcache_eval", "extra_instruction_ablation", "fan_workloads", "fig5",
    "fig6", "fig7", "fig8", "fig8_policy_ablation", "fig9",
    "fmt_bytes", "native_trace",
    "netcost", "prewarm_traces",
    "render_ablation", "render_dcache", "render_fig5", "render_fig6",
    "render_fig7", "render_fig8", "render_fig9", "render_netcost",
    "render_table1", "render_tagspace", "replay_tcache",
    "generate_report", "section_titles", "series_plot",
    "set_trace_cache_dir", "sweep_stale_cache_versions", "sweep_tcache",
    "table1", "tagspace", "trace_cache_dir",
]
