"""The scalar hole-move rule: the tests' oracle for ``nagaoka.sector``'s
vectorized ``hole_moves``, applied one configuration object at a time."""

from dataclasses import dataclass


@dataclass(frozen=True)
class HoleSpinConfig:
    hole: int
    up_mask: int


def configs(basis) -> tuple[HoleSpinConfig, ...]:
    """The sector basis as configuration objects, in its canonical order."""
    return tuple(HoleSpinConfig(h, u)
                 for h, u in zip(basis.holes.tolist(), basis.masks.tolist()))


def apply_move(config: HoleSpinConfig, frm: int, to: int) -> HoleSpinConfig | None:
    """Hop the hole from ``frm`` to ``to``; the spin at ``to`` backfills ``frm``.

    Returns None when the move is undefined, i.e. the hole is not at ``frm``.
    The move is an involution on its domain: hopping back restores the input.
    """
    if frm == to:
        raise ValueError("hole move needs two distinct sites")
    if config.hole != frm:
        return None
    mask = config.up_mask
    if mask >> to & 1:                      # an up spin moves to the old hole site
        mask = (mask ^ (1 << to)) | (1 << frm)
    return HoleSpinConfig(to, mask)
