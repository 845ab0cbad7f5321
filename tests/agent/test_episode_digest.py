"""Byte-identity of agent episodes: the agent path's golden digest.

The simulated LLM seeds its decisions from the prompt text, and the
prompt carries every earlier observation, so one reordered
``entity_search`` hit or one miscounted token changes the digest. The
digest covers every step's prompt, response and observation over all
enterprise two-hop questions, plus the model's final token usage, on a
flat store and on the serving stack's sharded, replicated store.
"""

import functools
import hashlib

from repro.agent import GraphAgent
from repro.kg import datasets
from repro.llm.registry import load_model
from repro.qa.multihop import generate_multihop_questions
from repro.serve import build_backends

#: SHA-256 of the episodes; update only for a deliberate change to agent
#: prompts, tool observations or token accounting. Both layouts must give
#: it: sharding and replication are invisible to the agent.
GOLDEN_EPISODE_DIGEST = \
    "b9b6d38a634877876d14a4437a43ae93b875ea68d601d6efaea37c85b003ed1a"

N_EMPLOYEES = 600


def _questions(data):
    questions = sorted({q.text for q in generate_multihop_questions(
        data, n=5000, hops=2, seed=0)})
    assert len(questions) == 612
    return questions


def _digest(agent, llm, questions) -> str:
    digest = hashlib.sha256()
    for question in questions:
        for step in agent.run(question).steps:
            for text in (step.prompt, step.response, step.observation or ""):
                digest.update(text.encode("utf-8") + b"\0")
    digest.update(f"{llm.prompt_tokens} {llm.completion_tokens}".encode())
    return digest.hexdigest()


def episode_digests(monkeypatch) -> dict:
    """The episode digest per store layout, computed afresh."""
    make = functools.partial(datasets.enterprise_kg, n_employees=N_EMPLOYEES)
    flat = make(seed=0)
    questions = _questions(flat)
    llm = load_model("chatgpt", world=flat.kg, seed=0)
    digests = {"flat": _digest(GraphAgent(llm, flat.kg, max_steps=8), llm,
                               questions)}
    monkeypatch.setitem(datasets.DATASET_BUILDERS, "enterprise-digest", make)
    backends = build_backends("enterprise-digest", seed=0, shards=4,
                              replicas=2)
    digests["sharded"] = _digest(backends.agent, backends.llm, questions)
    return digests


class TestEpisodeIdentity:
    def test_episodes_match_golden_digest(self, monkeypatch):
        assert episode_digests(monkeypatch) == {
            "flat": GOLDEN_EPISODE_DIGEST, "sharded": GOLDEN_EPISODE_DIGEST}
