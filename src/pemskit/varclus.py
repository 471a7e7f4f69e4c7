"""Variable clustering by iterative principal-component splitting.

All variables start in one cluster.  Any cluster whose correlation
matrix has a second eigenvalue above the threshold is split: each
member goes to whichever of the cluster's first two principal
components it has the larger squared correlation with.  After every
split, reassignment passes move each variable to the cluster whose
first component explains it best, until a full pass moves nothing.
Splitting stops when no second eigenvalue exceeds the threshold.

Membership decisions use squared correlation throughout, so they are
invariant under sign flips and positive rescaling of any input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .ingest import Dataset, PROCESS_PREDICTORS, resolve_predictors
from .stats import eigenpairs, gram

DEFAULT_THRESHOLD = 1.0
REASSIGN_PASS_CAP = 100


@dataclass(frozen=True)
class VarCluster:
    id: int
    members: tuple[str, ...]
    eigenvalue1: float
    eigenvalue2: float | None          # None for a singleton cluster


@dataclass(frozen=True)
class VariableClusterRow:
    variable: str
    cluster_id: int
    r2_own: float
    r2_next: float
    ratio: float                       # (1 - r2_own) / (1 - r2_next)


@dataclass(frozen=True)
class VarClusterReport:
    clusters: tuple[VarCluster, ...]
    rows: tuple[VariableClusterRow, ...]

    def memberships(self) -> list[frozenset[str]]:
        return [frozenset(c.members) for c in self.clusters]

    def row(self, variable: str) -> VariableClusterRow:
        for r in self.rows:
            if r.variable == variable:
                return r
        raise KeyError(variable)


def dependence_tag(variable: str) -> str:
    """'process' for internal turbine parameters, 'weather' for ambient ones."""
    return "process" if variable in PROCESS_PREDICTORS else "weather"


def _standardized(ds: Dataset, names: Sequence[str]) -> np.ndarray:
    if ds.n_records < 2:
        raise DegenerateDataError("variable clustering needs at least 2 records")
    data = ds.matrix(names)
    centered = data - data.mean(axis=0)
    stds = centered.std(axis=0, ddof=1)
    for i, s in enumerate(stds):
        if s == 0.0:
            raise DegenerateDataError(f"variable '{names[i]}' has zero variance")
    return centered / stds


def _cluster_eigs(z: np.ndarray, members: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """stats.eigenpairs of the members' correlation matrix; singleton
    clusters get the trivial answer."""
    if len(members) == 1:
        return np.array([1.0]), np.array([[1.0]])
    return eigenpairs(gram(z[:, members], z.shape[0] - 1))


def _squared_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Pearson correlation of two centered vectors."""
    denom = float(np.dot(a, a)) * float(np.dot(b, b))
    if denom == 0.0:
        return 0.0
    num = float(np.dot(a, b))
    return min((num * num) / denom, 1.0)


def _fit(z: np.ndarray, clusters: list[list[int]]) -> tuple[list, np.ndarray]:
    """Each cluster's ``_cluster_eigs``, and the squared correlation of
    every variable with every cluster's first-PC score, as a
    (variables, clusters) table."""
    eigs = [_cluster_eigs(z, members) for members in clusters]
    scores = [z[:, members] @ vecs[:, 0]
              for members, (_, vecs) in zip(clusters, eigs)]
    r2 = np.array([[_squared_corr(z[:, j], s) for s in scores]
                   for j in range(z.shape[1])])
    return eigs, r2


def _reassign(z: np.ndarray, clusters: list[list[int]]) -> list[list[int]]:
    """Move each variable to the cluster whose first PC it best matches,
    recomputing PCs each pass, until a pass moves nothing."""
    for _ in range(REASSIGN_PASS_CAP):
        _, r2 = _fit(z, clusters)
        owner = {j: ci for ci, members in enumerate(clusters) for j in members}
        moves = [(j, int(target)) for j, target in enumerate(r2.argmax(axis=1))
                 if target != owner[j]]
        for j, target in moves:
            clusters[owner[j]].remove(j)
            clusters[target].append(j)
        clusters = [c for c in clusters if c]
        if not moves:
            return clusters
    raise DegenerateDataError(
        f"variable reassignment did not converge within {REASSIGN_PASS_CAP} passes")


def cluster_variables(ds: Dataset,
                      variables: Sequence[str] | None = None,
                      threshold: float = DEFAULT_THRESHOLD) -> VarClusterReport:
    """Cluster variables and report per-variable own/next R-squared.

    A cluster is split while its second eigenvalue strictly exceeds
    ``threshold`` (largest offender first).  ``r2_own`` is the squared
    correlation of a variable with its own cluster's first PC,
    ``r2_next`` the maximum over all other clusters, and ``ratio`` is
    (1 - r2_own) / (1 - r2_next).  Singleton clusters report
    r2_own = 1 and ratio = 0 exactly.
    """
    names = resolve_predictors(variables)
    if len(names) < 2:
        raise ConfigError("variable clustering needs at least 2 variables")
    if not threshold > 0.0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    z = _standardized(ds, names)

    clusters: list[list[int]] = [list(range(len(names)))]
    blocked: set[int] = set()          # clusters where a split made an empty side
    for _ in range(10 * len(names) + 10):
        best_ci, best_l2, best_vecs = -1, threshold, None
        for ci, members in enumerate(clusters):
            if len(members) < 2 or ci in blocked:
                continue
            eigvals, eigvecs = _cluster_eigs(z, members)
            if float(eigvals[1]) > best_l2:
                best_ci, best_l2, best_vecs = ci, float(eigvals[1]), eigvecs
        if best_ci < 0:
            break
        members = clusters[best_ci]
        pc1 = z[:, members] @ best_vecs[:, 0]
        pc2 = z[:, members] @ best_vecs[:, 1]
        side1, side2 = [], []
        for j in members:
            zj = z[:, j]
            (side1 if _squared_corr(zj, pc1) >= _squared_corr(zj, pc2) else side2).append(j)
        if not side1 or not side2:
            blocked.add(best_ci)
            continue
        clusters[best_ci] = side1
        clusters.append(side2)
        clusters = _reassign(z, clusters)
        blocked.clear()
    else:
        raise DegenerateDataError("cluster splitting did not settle (split/merge cycle)")

    # Order clusters by size (largest first), then by canonical position
    # of their first member, and number them from 1.
    clusters.sort(key=lambda c: (-len(c), min(c)))
    eigs, r2 = _fit(z, clusters)
    cluster_objs, rows = [], []
    for ci, (members, (eigvals, _)) in enumerate(zip(clusters, eigs)):
        # singletons explain themselves exactly
        r2_own = {j: float(r2[j, ci]) if len(members) > 1 else 1.0
                  for j in members}
        ordered = sorted(members, key=lambda j: (-r2_own[j], j))
        cluster_objs.append(VarCluster(
            id=ci + 1,
            members=tuple(names[j] for j in ordered),
            eigenvalue1=float(eigvals[0]),
            eigenvalue2=float(eigvals[1]) if len(members) > 1 else None,
        ))
        for j in ordered:
            r2_next = max((float(v) for oi, v in enumerate(r2[j]) if oi != ci),
                          default=0.0)
            if r2_own[j] >= 1.0:
                ratio = 0.0
            elif r2_next >= 1.0:
                ratio = float("inf")
            else:
                ratio = (1.0 - r2_own[j]) / (1.0 - r2_next)
            rows.append(VariableClusterRow(names[j], ci + 1, r2_own[j], r2_next,
                                           ratio))
    return VarClusterReport(tuple(cluster_objs), tuple(rows))
