"""Number formatting shared by every artifact writer."""


def fmt_num(x) -> str:
    """Shortest text that reads back as the same float.  The value goes
    through float() first, so a numpy scalar prints as a plain number rather
    than as np.float64(...), which float() cannot parse."""
    return repr(float(x))
