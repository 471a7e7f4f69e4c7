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
    z = ds.matrix(names)    # a copy: centered and scaled in place
    z -= z.mean(axis=0)
    stds = z.std(axis=0, ddof=1)
    for i, s in enumerate(stds):
        if s == 0.0:
            raise DegenerateDataError(f"variable '{names[i]}' has zero variance")
    z /= stds
    return z


def _r2(z: np.ndarray, zz: list[float], s: np.ndarray, cols) -> list[float]:
    """Squared Pearson correlation of the centered vector s with each of
    z's centered columns in cols, whose self products zz holds."""
    ss = float(np.dot(s, s))
    pairs = [(float(np.dot(z[:, j], s)), zz[j] * ss) for j in cols]
    return [min((num * num) / denom, 1.0) if denom != 0.0 else 0.0
            for num, denom in pairs]


def _fit(z: np.ndarray, zz: list[float],
         clusters: list[list[int]]) -> tuple[list, np.ndarray]:
    """Each cluster's eigenpairs (a singleton's trivially) from its columns,
    taken once, and the squared correlation of every variable with every
    cluster's first-PC score, as a (variables, clusters) table."""
    eigs, r2 = [], []
    for members in clusters:
        cols = z[:, members]
        pair = (np.array([1.0]), np.array([[1.0]])) if len(members) == 1 \
            else eigenpairs(gram(cols, z.shape[0] - 1))
        eigs.append(pair)
        r2.append(_r2(z, zz, cols @ pair[1][:, 0], range(z.shape[1])))
    return eigs, np.array(r2).T


def _reassign(z: np.ndarray, zz: list[float], clusters: list[list[int]]):
    """Move each variable to the cluster whose first PC it best matches,
    refitting each pass, until a pass moves nothing; returns the
    clusters and their ``_fit``."""
    for _ in range(REASSIGN_PASS_CAP):
        eigs, r2 = _fit(z, zz, clusters)
        owner = {j: ci for ci, members in enumerate(clusters) for j in members}
        moves = [(j, int(target)) for j, target in enumerate(r2.argmax(axis=1))
                 if target != owner[j]]
        if not moves:
            return clusters, eigs, r2
        for j, target in moves:
            clusters[owner[j]].remove(j)
            clusters[target].append(j)
        clusters = [c for c in clusters if c]
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

    # one _fit per partition serves the split search, the split (its PC1
    # side is r2's column), the reassignment and the report
    zz = [float(np.dot(z[:, j], z[:, j])) for j in range(len(names))]
    clusters: list[list[int]] = [list(range(len(names)))]
    eigs, r2 = _fit(z, zz, clusters)
    blocked: set[int] = set()          # clusters where a split made an empty side
    for _ in range(10 * len(names) + 10):
        best_ci, best_l2 = -1, threshold
        for ci, (members, (eigvals, _)) in enumerate(zip(clusters, eigs)):
            if len(members) > 1 and ci not in blocked and float(eigvals[1]) > best_l2:
                best_ci, best_l2 = ci, float(eigvals[1])
        if best_ci < 0:
            break
        members = clusters[best_ci]
        r2_pc2 = _r2(z, zz, z[:, members] @ eigs[best_ci][1][:, 1], members)
        side1 = [j for j, pc2 in zip(members, r2_pc2) if r2[j, best_ci] >= pc2]
        side2 = [j for j in members if j not in side1]
        if not side1 or not side2:
            blocked.add(best_ci)
            continue
        clusters[best_ci] = side1
        clusters.append(side2)
        clusters, eigs, r2 = _reassign(z, zz, clusters)
        blocked.clear()
    else:
        raise DegenerateDataError("cluster splitting did not settle (split/merge cycle)")

    # Order clusters by size (largest first), then by canonical position
    # of their first member, and number them from 1.
    order = sorted(range(len(clusters)),
                   key=lambda ci: (-len(clusters[ci]), min(clusters[ci])))
    clusters, eigs = [clusters[ci] for ci in order], [eigs[ci] for ci in order]
    r2 = r2[:, order]
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
