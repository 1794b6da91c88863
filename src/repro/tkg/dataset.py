"""Temporal knowledge graph dataset: snapshots, splits, augmentation.

A :class:`TKGDataset` bundles the train/valid/test quadruple sets together
with the entity/relation vocabulary sizes, mirroring the standard
extrapolation protocol: splits are *chronological* (80/10/10 in the paper)
so the model never trains on timestamps it is evaluated on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .quadruples import QuadrupleSet
from .vocabulary import Vocabulary


@dataclass(frozen=True)
class Snapshot:
    """All facts at one timestamp, in edge-array form ready for a GCN.

    ``src``, ``rel``, ``dst`` are aligned int arrays; one GCN message flows
    along each (src --rel--> dst) edge.
    """

    time: int
    src: np.ndarray
    rel: np.ndarray
    dst: np.ndarray

    @classmethod
    def from_array(cls, t: int, facts: np.ndarray) -> "Snapshot":
        return cls(time=t, src=facts[:, 0].copy(), rel=facts[:, 1].copy(),
                   dst=facts[:, 2].copy())

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def active_entities(self) -> np.ndarray:
        """Distinct entity ids appearing in this snapshot."""
        return np.unique(np.concatenate([self.src, self.dst]))


class TKGDataset:
    """A temporal KG with chronological train/valid/test splits.

    Parameters
    ----------
    name:
        Identifier (e.g. ``"icews14_like"``).
    train, valid, test:
        :class:`QuadrupleSet` splits with *original* (non-inverse) facts.
    num_entities, num_relations:
        Vocabulary sizes.  ``num_relations`` counts original relations;
        models that add inverses use ``2 * num_relations`` embedding rows.
    entity_vocab, relation_vocab:
        Optional human-readable vocabularies (used by the case study).
    static_facts:
        Optional static side graph ``(entity, static_rel, attribute)``
        triples, mirroring the static-KG information RE-GCN-family models
        attach on the ICEWS datasets.
    provenance:
        Optional mapping ``(s, r, o, t) -> pattern label``.  Synthetic
        generators record which generative pattern emitted each fact so
        evaluation results can be broken down per pattern
        (:mod:`repro.analysis`).
    """

    def __init__(self, name: str, train: QuadrupleSet, valid: QuadrupleSet,
                 test: QuadrupleSet, num_entities: int, num_relations: int,
                 entity_vocab: Optional[Vocabulary] = None,
                 relation_vocab: Optional[Vocabulary] = None,
                 static_facts: Optional[np.ndarray] = None,
                 provenance: Optional[Dict[Tuple[int, int, int, int], str]] = None,
                 time_granularity: str = "1 step"):
        self.name = name
        self.train = train
        self.valid = valid
        self.test = test
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        self.static_facts = static_facts
        self.provenance = provenance
        self.time_granularity = time_granularity
        self._validate()

    def _validate(self) -> None:
        for split_name, split in self.splits().items():
            if len(split) == 0:
                continue
            ent_max, rel_max, _ = split.max_ids()
            if ent_max >= self.num_entities:
                raise ValueError(
                    f"{split_name} split references entity {ent_max} but "
                    f"dataset declares {self.num_entities} entities")
            if rel_max >= self.num_relations:
                raise ValueError(
                    f"{split_name} split references relation {rel_max} but "
                    f"dataset declares {self.num_relations} relations")
        if len(self.train) and len(self.valid) and len(self.test):
            if not (self.train.times.max() < self.valid.times.min()
                    <= self.valid.times.max() < self.test.times.min()):
                raise ValueError("splits must be chronologically disjoint: "
                                 "train < valid < test")

    # ------------------------------------------------------------------
    @property
    def num_relations_with_inverses(self) -> int:
        return 2 * self.num_relations

    def splits(self) -> Dict[str, QuadrupleSet]:
        return {"train": self.train, "valid": self.valid, "test": self.test}

    def all_facts(self) -> QuadrupleSet:
        return self.train.concat(self.valid).concat(self.test)

    @property
    def num_timestamps(self) -> int:
        """One past the latest timestamp of any split (0 when empty)."""
        return max((int(split.times.max()) + 1
                    for split in self.splits().values() if len(split)),
                   default=0)

    # ------------------------------------------------------------------
    def snapshots(self, split: str = "train",
                  with_inverses: bool = True) -> List[Snapshot]:
        """Snapshots of one split in time order.

        With ``with_inverses`` (the paper's setting) each snapshot carries
        both the original and the reversed edges, so a single GCN pass
        propagates information in both directions.
        """
        quads = self.splits()[split]
        if with_inverses:
            quads = quads.with_inverses(self.num_relations)
        return [Snapshot.from_array(t, facts)
                for t, facts in sorted(quads.group_by_time().items())]


def chronological_split(quads: QuadrupleSet, ratios: Sequence[float] = (0.8, 0.1, 0.1)
                        ) -> Tuple[QuadrupleSet, QuadrupleSet, QuadrupleSet]:
    """Split facts by timestamp into train/valid/test with ~given ratios.

    Splits on snapshot boundaries (a timestamp is never divided between
    splits), matching the preprocessing of RE-GCN / RE-NET that the paper
    follows.
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or len(ratios) != 3:
        raise ValueError("ratios must be three values summing to 1")
    # One vectorized pass over the (already time-sorted) array; the
    # per-timestamp ``at_time`` loop this replaces re-sorted the whole
    # set once per distinct timestamp, which made million-fact synthetic
    # presets (repro.data.scale) quadratic to split.
    times, counts = np.unique(quads.times, return_counts=True)
    if len(times) < 3:
        raise ValueError("need at least 3 distinct timestamps to split")
    cumulative = np.cumsum(counts) / counts.sum()
    train_end = int(np.searchsorted(cumulative, ratios[0]) + 1)
    valid_end = int(np.searchsorted(cumulative, ratios[0] + ratios[1]) + 1)
    train_end = min(max(train_end, 1), len(times) - 2)
    valid_end = min(max(valid_end, train_end + 1), len(times) - 1)
    t_train = times[train_end - 1]
    t_valid = times[valid_end - 1]
    train = QuadrupleSet(quads.array[quads.times <= t_train])
    valid = QuadrupleSet(quads.array[(quads.times > t_train) & (quads.times <= t_valid)])
    test = QuadrupleSet(quads.array[quads.times > t_valid])
    return train, valid, test
