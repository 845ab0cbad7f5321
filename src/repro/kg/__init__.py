"""Knowledge-graph substrate: terms, triple store, graph façade, ontology,
RDF serialization and seeded synthetic datasets.

This package is the structured-knowledge half of the LLM⟷KG interplay. Every
higher-level package (completion, validation, QA, RAG, ...) builds on the
types exported here.
"""

from repro.kg.triples import (
    IRI,
    Literal,
    Term,
    Triple,
    Namespace,
    RDF,
    RDFS,
    OWL,
    XSD,
    REPRO,
)
from repro.kg.store import TripleStore
from repro.kg.graph import KnowledgeGraph
from repro.kg.ontology import Ontology, ClassDef, PropertyDef, PropertyCharacteristic
from repro.kg.wal import DurableTripleStore, RecoveryReport, WriteAheadLog, recover
from repro.kg.sharding import DurableShardedTripleStore, ShardedTripleStore, shard_of
from repro.kg.replication import (
    PartitionWindow,
    ReplicatedShardedTripleStore,
    ReplicationError,
    ShardTransport,
    ShardUnavailableError,
    StaleReadError,
    TransportProfile,
    load_schedule_jsonl,
)
from repro.kg.indexes import FullTextIndex, NumericIndex

__all__ = [
    "IRI",
    "Literal",
    "Term",
    "Triple",
    "Namespace",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "REPRO",
    "TripleStore",
    "KnowledgeGraph",
    "Ontology",
    "ClassDef",
    "PropertyDef",
    "PropertyCharacteristic",
    "DurableTripleStore",
    "RecoveryReport",
    "WriteAheadLog",
    "recover",
    "ShardedTripleStore",
    "DurableShardedTripleStore",
    "shard_of",
    "FullTextIndex",
    "NumericIndex",
    "PartitionWindow",
    "ReplicatedShardedTripleStore",
    "ReplicationError",
    "ShardTransport",
    "ShardUnavailableError",
    "StaleReadError",
    "TransportProfile",
    "load_schedule_jsonl",
]
