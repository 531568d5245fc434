"""Text artifacts: the one writer and the one reader behind every
line-oriented file a stage writes.  Fields are joined by a space, or by a tab
in a TSV report; an int is written as its digits, any other number by
`fmt_num`, and a str as it is.  Each format's line parser skips a tag it does
not know, and a malformed line raises `ArtifactError` naming file and line.

Read back by the next stage:

    graph.txt     node ID X Y  |  edge ID NODE_A NODE_B LENGTH
    route.txt     termini EDGE_A EDGE_B  |  loop_length L  |  rejection_radius R
                  segment DIRECTION(0/1) EDGE FORWARD(0/1) START_OFFSET LENGTH
    patches.txt   # gamma BINS  |  FRACTION, one breakpoint a line from 0.0 to 1.0
    model.txt     patch J erlang K RATE mu MEAN          (J = 1, 2, ... in order)
                  patch J hyper M K_1 RATE_1 WEIGHT_1 ... K_M RATE_M WEIGHT_M mu MEAN
    X.pgm.meta    cell_size SIZE  |  origin X Y

TSV reports, a header line and then one row per record: observations.tsv
(patch duration), gof.tsv (patch n_obs A2 p mean sd cv skew kurt),
cdf_patchJ.tsv (kind x F), events.tsv (t bus patch lap) and results.tsv
(assertion patch estimate halfwidth verdict batches sim_time truncated).
"""

from __future__ import annotations

import numbers
from typing import Callable, Iterable


class ArtifactError(ValueError):
    """A malformed artifact line; the message names the file and the line."""


def fmt_num(x) -> str:
    """Shortest text that reads back as the same float.  The value goes
    through float() first, so a numpy scalar prints as a plain number rather
    than as np.float64(...), which float() cannot parse."""
    return repr(float(x))


def _field(x) -> str:
    if isinstance(x, str):
        return x
    return str(x) if isinstance(x, numbers.Integral) else fmt_num(x)


def write_lines(path, rows: Iterable[Iterable], sep: str = " ") -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(sep.join(map(_field, row)) + "\n")


def read_lines(path, parse_line: Callable[[list[str]], None]) -> None:
    """Call parse_line with the fields of each non-blank line.  A plain
    ValueError it raises (a bad number, a missing or extra field) becomes an
    ArtifactError; a subclass, such as GraphError, keeps its type."""
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                parse_line(fields)
            except ValueError as exc:
                if type(exc) is not ValueError:
                    raise
                raise ArtifactError(f"{path}, line {n}: {exc}") from exc
