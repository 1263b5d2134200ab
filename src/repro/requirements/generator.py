"""Synthetic requirements-corpus generator.

The paper's evaluation corpus — "several hundreds of documents from which
about 100,000 triples were extracted", written at CIRA about on-board
software — is proprietary.  This generator produces a synthetic corpus with
the same structure (see docs/reproduction.md, substitution table):

* a set of Actors (``OBSW001`` … software components, ``HWD001`` … hardware
  devices);
* a catalogue of function predicates with antinomy pairs (the requirements
  vocabulary of :mod:`repro.requirements.vocabulary`);
* parameter values per parameter type (commands, messages, inputs, ...);
* documents made of requirements, each requirement made of one or more
  controlled-English sentences, each sentence yielding one triple;
* a controlled fraction of *injected inconsistencies*: pairs of requirements
  about the same Actor and Parameter whose predicates are antinomic
  (``accept_cmd`` vs ``block_cmd``), which is exactly the paper's definition
  of an inconsistency;
* additionally, some (actor, parameter) pairs are restated across documents
  with the *same* predicate, so ground-truth sets have more than one element
  and the precision/recall trade-off of Fig. 8 is observable.

The generator is fully deterministic given its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.rdf.terms import Concept
from repro.rdf.triple import Triple
from repro.requirements.model import Requirement, RequirementsDocument
from repro.requirements.vocabulary import (
    FUNCTION_FAMILIES,
    FUNCTION_PREFIX,
    PARAMETER_PREFIXES,
)

__all__ = ["GeneratorConfig", "SyntheticCorpus", "RequirementsGenerator"]

#: Sentence template: subject sortal, verb phrase, object sortal, parameter.
_VERB_PHRASES: Dict[str, Tuple[str, bool]] = {
    # function name -> (verb, negated?)
    "accept_cmd": ("accept", False),
    "block_cmd": ("block", False),
    "send_msg": ("send", False),
    "suppress_msg": ("suppress", False),
    "acquire_in": ("acquire", False),
    "ignore_in": ("ignore", False),
    "enable_mode": ("enable", False),
    "disable_mode": ("disable", False),
    "start_proc": ("start", False),
    "stop_proc": ("stop", False),
    "transmit_tm": ("transmit", False),
    "withhold_tm": ("withhold", False),
    "raise_signal": ("raise", False),
    "clear_signal": ("clear", False),
}

#: Which parameter prefix (object vocabulary) each function family uses.
_FAMILY_PARAMETER_PREFIX: Dict[str, str] = {
    "command_handling": "CmdType",
    "messaging": "MsgType",
    "acquisition": "InType",
    "mode_management": "ModeType",
    "process_control": "ParType",
    "telemetry": "TmType",
    "signalling": "SigType",
}

_PARAMETER_WORDS: Dict[str, Sequence[str]] = {
    "CmdType": ("start-up", "shutdown", "reset", "self-test", "reboot", "calibrate",
                "arm", "disarm", "sync", "dump"),
    "MsgType": ("power-amplifier", "heartbeat", "status-report", "error-log",
                "telecommand-echo", "housekeeping", "event-report", "alarm"),
    "InType": ("pre-launch-phase", "ascent-phase", "cruise-phase", "descent-phase",
               "ground-test", "sensor-frame", "gps-fix", "imu-sample"),
    "ModeType": ("safe-mode", "nominal-mode", "survival-mode", "standby-mode",
                 "maintenance-mode", "diagnostic-mode"),
    "ParType": ("watchdog", "scheduler", "downlink", "uplink", "memory-scrub",
                "bus-controller", "thermal-control"),
    "TmType": ("temperature-frame", "voltage-frame", "attitude-frame",
               "pressure-frame", "current-frame"),
    "SigType": ("overcurrent-flag", "overtemperature-flag", "watchdog-alarm",
                "latch-up-flag", "undervoltage-flag"),
}

_SUBJECT_SORTAL = {"OBSW": "component", "HWD": "device"}


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Knobs of the synthetic corpus generator.

    Parameters
    ----------
    documents:
        Number of requirements documents.
    requirements_per_document:
        Requirements in each document.
    sentences_per_requirement:
        Sentences (= triples) per requirement.
    actors:
        Number of distinct Actors (80% software components, 20% hardware).
    inconsistency_rate:
        Fraction of requirements that get an injected antinomic counterpart.
    restatement_rate:
        Fraction of triples that are restated (same actor/function/parameter)
        in another requirement, enlarging ground-truth sets.
    seed:
        Seed of the deterministic pseudo-random generator.
    """

    documents: int = 20
    requirements_per_document: int = 10
    sentences_per_requirement: int = 3
    actors: int = 40
    inconsistency_rate: float = 0.2
    restatement_rate: float = 0.15
    seed: int = 7

    def __post_init__(self) -> None:
        if min(self.documents, self.requirements_per_document,
               self.sentences_per_requirement, self.actors) < 1:
            raise WorkloadError("documents, requirements, sentences and actors must be >= 1")
        for name in ("inconsistency_rate", "restatement_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1], got {value}")

    @property
    def total_triples(self) -> int:
        """Upper bound on the number of generated base triples."""
        return self.documents * self.requirements_per_document * self.sentences_per_requirement


@dataclass
class SyntheticCorpus:
    """The generator's output.

    Attributes
    ----------
    documents:
        The requirements documents.
    actor_names / parameter_values:
        The Actors and parameter values used, for vocabulary construction.
    injected_inconsistencies:
        Pairs ``(triple_a, triple_b)`` that were written to be inconsistent
        (same subject and object, antinomic predicates).
    """

    documents: List[RequirementsDocument]
    actor_names: List[str]
    parameter_values: Dict[str, List[str]]
    injected_inconsistencies: List[Tuple[Triple, Triple]] = field(default_factory=list)

    def all_triples(self) -> List[Triple]:
        """Every triple of the corpus, in document order."""
        return [
            triple
            for document in self.documents
            for requirement in document
            for triple in requirement
        ]

    def all_requirements(self) -> List[Requirement]:
        """Every requirement of the corpus, in document order."""
        return [requirement for document in self.documents for requirement in document]

    def __repr__(self) -> str:
        return (
            f"SyntheticCorpus(documents={len(self.documents)}, "
            f"triples={len(self.all_triples())}, "
            f"injected_inconsistencies={len(self.injected_inconsistencies)})"
        )


class RequirementsGenerator:
    """Deterministic generator of synthetic on-board-software requirements."""

    def __init__(self, config: GeneratorConfig | None = None):
        self.config = config or GeneratorConfig()
        self._rng = random.Random(self.config.seed)

    # -- public API ------------------------------------------------------------------------

    def generate(self) -> SyntheticCorpus:
        """Generate the corpus described by the configuration."""
        config = self.config
        actor_names = self._make_actors(config.actors)
        parameter_values = {prefix: list(values) for prefix, values in _PARAMETER_WORDS.items()}
        corpus = SyntheticCorpus(
            documents=[], actor_names=actor_names, parameter_values=parameter_values
        )

        requirement_counter = 0
        restatement_pool: List[Triple] = []
        for document_index in range(config.documents):
            document = RequirementsDocument(
                document_id=f"DOC{document_index + 1:03d}",
                title=f"On-board software requirements, volume {document_index + 1}",
            )
            for _ in range(config.requirements_per_document):
                requirement_counter += 1
                requirement = self._make_requirement(
                    f"REQ{requirement_counter:05d}", actor_names, restatement_pool
                )
                document.add(requirement)
                self._maybe_inject_inconsistency(document, requirement, corpus,
                                                 requirement_counter)
            corpus.documents.append(document)
        return corpus

    # -- pieces -----------------------------------------------------------------------------

    def _make_actors(self, count: int) -> List[str]:
        software = max(1, round(count * 0.8))
        hardware = max(0, count - software)
        names = [f"OBSW{i + 1:03d}" for i in range(software)]
        names += [f"HWD{i + 1:03d}" for i in range(hardware)]
        return names

    def _pick_function(self) -> Tuple[str, str, str]:
        """Return (family, function, parameter_prefix)."""
        family, positive, negative = self._rng.choice(FUNCTION_FAMILIES)
        function = positive if self._rng.random() < 0.7 else negative
        return family, function, _FAMILY_PARAMETER_PREFIX[family]

    def _make_triple(self, actor: str, function: str, prefix: str, parameter: str) -> Triple:
        return Triple(
            Concept(actor),
            Concept(function, FUNCTION_PREFIX),
            Concept(parameter, prefix),
        )

    def _make_sentence(self, actor: str, function: str, prefix: str, parameter: str) -> str:
        verb, _ = _VERB_PHRASES[function]
        sortal = PARAMETER_PREFIXES[prefix]
        subject_sortal = _SUBJECT_SORTAL.get(actor[:4].rstrip("0123456789"), "component")
        return f"The {subject_sortal} {actor} shall {verb} the {sortal} {parameter}."

    def _make_requirement(self, requirement_id: str, actor_names: List[str],
                          restatement_pool: List[Triple]) -> Requirement:
        config = self.config
        requirement = Requirement(requirement_id=requirement_id)
        actor = self._rng.choice(actor_names)
        for _ in range(config.sentences_per_requirement):
            reuse = (
                restatement_pool
                and self._rng.random() < config.restatement_rate
            )
            if reuse:
                base = self._rng.choice(restatement_pool)
                assert isinstance(base.predicate, Concept) and isinstance(base.object, Concept)
                triple = base
                actor_name = str(base.subject.name if isinstance(base.subject, Concept) else base.subject)
                sentence = self._make_sentence(
                    actor_name, base.predicate.name, base.object.prefix, base.object.name
                )
            else:
                family, function, prefix = self._pick_function()
                parameter = self._rng.choice(_PARAMETER_WORDS[prefix])
                triple = self._make_triple(actor, function, prefix, parameter)
                sentence = self._make_sentence(actor, function, prefix, parameter)
                restatement_pool.append(triple)
            requirement.triples.append(triple)
            requirement.sentences.append(sentence)
        return requirement

    def _maybe_inject_inconsistency(self, document: RequirementsDocument,
                                    requirement: Requirement, corpus: SyntheticCorpus,
                                    counter: int) -> None:
        """With probability ``inconsistency_rate``, add one to three requirements
        stating the antinomic counterpart of one of ``requirement``'s triples.

        The conflicting statements use spelling variants of the parameter
        ("start-up", "startup", "start_up"), which is what real corpora look
        like once several authors restate the same constraint; the
        ground-truth oracle treats those variants as the same object.
        """
        if self._rng.random() >= self.config.inconsistency_rate or not requirement.triples:
            return
        base = self._rng.choice(requirement.triples)
        assert isinstance(base.predicate, Concept) and isinstance(base.object, Concept)
        antonym = self._antonym_of(base.predicate.name)
        if antonym is None:
            return
        subject_name = base.subject.name if isinstance(base.subject, Concept) else str(base.subject)
        conflict_count = self._rng.randint(1, 3)
        for variant_index in range(conflict_count):
            parameter = self._spelling_variant(base.object.name, variant_index)
            conflicting = self._make_triple(subject_name, antonym, base.object.prefix, parameter)
            sentence = self._make_sentence(subject_name, antonym, base.object.prefix, parameter)
            conflicting_requirement = Requirement(
                requirement_id=f"REQ{counter:05d}-C{variant_index + 1}",
                sentences=[sentence],
                triples=[conflicting],
            )
            document.add(conflicting_requirement)
            corpus.injected_inconsistencies.append((base, conflicting))

    @staticmethod
    def _spelling_variant(parameter: str, variant_index: int) -> str:
        """Spelling variants of a hyphenated parameter name (variant 0 = original)."""
        if variant_index == 0:
            return parameter
        if variant_index == 1:
            return parameter.replace("-", "")
        return parameter.replace("-", "_")

    @staticmethod
    def _antonym_of(function: str) -> str | None:
        for _, positive, negative in FUNCTION_FAMILIES:
            if function == positive:
                return negative
            if function == negative:
                return positive
        return None
