"""One module per paper exhibit: Fig. 1, 6, 7, 8, 9 and Table III —
plus the sweep-execution layer they all run on (cell model, sharded
result cache, persistent sweep engine)."""

from repro.experiments.fig1 import analytic_schedules, fig1_machine, fig1_rows, run_fig1
from repro.experiments.fig6 import Fig6Result, Fig6Row, run_fig6
from repro.experiments.fig7 import Fig7Result, Fig7Row, run_fig7
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.experiments.fig9 import Fig9Point, Fig9Result, run_fig9
from repro.experiments.fig_hetero import (
    HeteroResult,
    HeteroRow,
    run_fig_hetero,
)
from repro.experiments.report import (
    bar_chart,
    format_percent,
    format_series,
    format_table,
    frequency_timeline,
    grouped_bar_chart,
)
from repro.experiments.outcome import RunOutcome
from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    ResultCache,
    SweepStats,
)
from repro.experiments.sweep import SweepEngine, SweepTicket
from repro.experiments.table3 import Table3Result, Table3Row, run_table3
from repro.scenario.spec import DEFAULT_SEEDS

__all__ = [
    "CellOutcome",
    "CellSpec",
    "DEFAULT_SEEDS",
    "ResultCache",
    "SweepEngine",
    "SweepStats",
    "SweepTicket",
    "bar_chart",
    "frequency_timeline",
    "grouped_bar_chart",
    "Fig6Result",
    "Fig6Row",
    "Fig7Result",
    "Fig7Row",
    "Fig8Result",
    "Fig9Point",
    "Fig9Result",
    "HeteroResult",
    "HeteroRow",
    "RunOutcome",
    "Table3Result",
    "Table3Row",
    "analytic_schedules",
    "fig1_machine",
    "fig1_rows",
    "format_percent",
    "format_series",
    "format_table",
    "run_fig1",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig_hetero",
    "run_table3",
]
