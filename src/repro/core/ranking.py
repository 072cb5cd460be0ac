"""Combined ranking functions ``f(distance, IRscore)`` (Section V.C).

The general top-k algorithm requires ``f`` to be *decreasing* in distance
and *increasing* in IR score — that monotonicity is what makes the node
upper bound ``Upper(v) = f(MINDIST(v), UpperIR(v))`` admissible.  Every
class here satisfies the contract and documents its trade-off profile;
:func:`validate_monotonicity` spot-checks a custom function before the
search trusts it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, Sequence

from repro.errors import QueryError

RankingCallable = Callable[[float, float], float]


class RankingFunction(Protocol):
    """Contract: ``f(distance, ir_score)``, decreasing in the former and
    increasing in the latter."""

    def __call__(self, distance: float, ir_score: float) -> float: ...


class DistanceDecayRanking:
    """``f = ir_score / (1 + distance / half_distance)``.

    At ``distance == half_distance`` a result keeps half the relevance it
    would have at the query point.  Scale-free over IR scores: doubling all
    IR scores doubles all combined scores, so no normalization constants
    are needed.

    Args:
        half_distance: distance at which relevance is halved (> 0).
    """

    def __init__(self, half_distance: float = 1.0) -> None:
        if half_distance <= 0:
            raise QueryError(f"half_distance must be > 0, got {half_distance}")
        self.half_distance = half_distance

    def __call__(self, distance: float, ir_score: float) -> float:
        return ir_score / (1.0 + distance / self.half_distance)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DistanceDecayRanking(half_distance={self.half_distance})"


class LinearRanking:
    """``f = alpha * (1 - distance / max_distance) + (1 - alpha) * ir_score``.

    The additive blend used by many follow-up spatial-keyword papers.
    Distances beyond ``max_distance`` clamp to a proximity of zero (the
    function must stay monotone, so it cannot go negative on distance
    alone).

    Args:
        alpha: weight of the spatial component in [0, 1].
        max_distance: distance at which spatial proximity reaches zero.
    """

    def __init__(self, alpha: float = 0.5, max_distance: float = 1.0) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise QueryError(f"alpha must be in [0, 1], got {alpha}")
        if max_distance <= 0:
            raise QueryError(f"max_distance must be > 0, got {max_distance}")
        self.alpha = alpha
        self.max_distance = max_distance

    def __call__(self, distance: float, ir_score: float) -> float:
        proximity = max(0.0, 1.0 - distance / self.max_distance)
        return self.alpha * proximity + (1.0 - self.alpha) * ir_score

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LinearRanking(alpha={self.alpha}, max_distance={self.max_distance})"


def validate_monotonicity(
    f: RankingCallable,
    distances: Sequence[float] = (0.0, 0.5, 1.0, 5.0, 50.0),
    ir_scores: Sequence[float] = (0.0, 0.1, 1.0, 10.0),
) -> None:
    """Spot-check that ``f`` honours the monotonicity contract.

    Raises:
        QueryError: when ``f`` increases with distance or decreases with
            IR score anywhere on the probe grid.
    """
    for ir in ir_scores:
        previous = None
        for d in sorted(distances):
            value = f(d, ir)
            if previous is not None and value > previous + 1e-12:
                raise QueryError(
                    f"ranking function increases with distance at d={d}, ir={ir}"
                )
            previous = value
    for d in distances:
        previous = None
        for ir in sorted(ir_scores):
            value = f(d, ir)
            if previous is not None and value < previous - 1e-12:
                raise QueryError(
                    f"ranking function decreases with IR score at d={d}, ir={ir}"
                )
            previous = value


def default_half_distance(points: Iterable[Sequence[float]]) -> float:
    """A data-independent but sane decay scale: 10% of the data extent.

    The extent is the largest per-dimension span of ``points``; an empty
    dataset gets 1.0.  A sharded engine passes every shard's points, so
    its default equals the single engine's over the same corpus.
    """
    points = list(points)
    if not points:
        return 1.0
    spans = [
        max(p[d] for p in points) - min(p[d] for p in points)
        for d in range(len(points[0]))
    ]
    extent = max(spans) if spans else 1.0
    return max(extent * 0.1, 1e-9)


def resolve_ranking(
    ranking: RankingCallable | None, points: Iterable[Sequence[float]]
) -> RankingCallable:
    """The ranking function a ranked query runs with, on every engine.

    ``None`` selects a :class:`DistanceDecayRanking` scaled by
    :func:`default_half_distance` over ``points`` (consumed only then, so
    a lazy iterable costs nothing otherwise).  A custom function must
    pass :func:`validate_monotonicity`; the built-in classes are monotone
    by construction and skip the check.

    Raises:
        QueryError: when a custom function fails the monotonicity check.
    """
    if ranking is None:
        return DistanceDecayRanking(half_distance=default_half_distance(points))
    if not isinstance(ranking, (DistanceDecayRanking, LinearRanking)):
        validate_monotonicity(ranking)
    return ranking
