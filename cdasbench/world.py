"""The fixed serving world and the seeded request schedules.

The world — worker pool, market seed, tenants, tokens, slots — is fixed
here and never depends on the benchmark's ``--seed``.  The seed picks
only the corpora, the order of requests, and which requests are
infeasible, cancelled or replayed.  Query sizes are constants, so
latency moves with the program rather than with the seed's draws.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CHURN",
    "BULK",
    "CAPPED_ATTEMPTS",
    "CAPPED_TENANT",
    "SLOTS",
    "TENANTS",
    "TOKENS",
    "TENANT_CAP",
    "WORLD_SEED",
    "Op",
    "Shape",
    "build_schedule",
    "capped_op",
]

WORLD_SEED = 2012
POOL_SIZE = 200
SLOTS = 4
#: Two tenants whose names rendezvous to different shards of a 2-shard
#: router (tenant-000 → shard0, tenant-002 → shard1).
TENANTS = ("tenant-000", "tenant-002")
#: A third tenant with a small cap.  After the timed schedule it submits
#: one query after another until the server refuses one: the check that
#: the server enforces a cap and keeps the tenant's spend within it.
CAPPED_TENANT = "tenant-capped"
#: Submits after which a server that has not refused the capped tenant
#: fails the check: three times what its cap can pay for.
CAPPED_ATTEMPTS = 12
TOKENS = {f"{tenant}-token": tenant for tenant in (*TENANTS, CAPPED_TENANT)}
#: Cap of the two scheduled tenants: far above what a run spends, so the
#: cap accounting runs on every submit but only the bodies built to be
#: infeasible are refused.  Refusal at a cap is checked on
#: ``CAPPED_TENANT``.
TENANT_CAP = 100000.0
#: The demo's query parameters (``cdas-repro serve``): 5 workers forced
#: per item (no calibration-dependent sizing), 6 tweets per HIT, 12
#: gold tweets.
WORKERS_PER_ITEM = 5
TSA_BATCH = 6
GOLD_TWEETS = 12


@dataclass(frozen=True)
class Shape:
    """One serving workload's fixed request shape."""

    tsa_tweets: int
    it_images: int
    #: Every k-th query is an image-tagging query.
    it_every: int
    #: Rounds per second of ``--seconds`` (two clients, one query each).
    rounds_per_s: float
    #: Rounds between two reference probes.
    rounds_per_probe: int
    #: The capped tenant's cap: room for four of its TSA queries.
    capped_cap: float
    #: Shares of queries that carry each extra (churn only).
    explain_share: float = 0.0
    poll_share: float = 0.0
    cancel_share: float = 0.0
    infeasible_share: float = 0.0
    replay_share: float = 0.0


# Why each value is what it is: README.md, "Serving traffic".
BULK = Shape(
    tsa_tweets=240,
    it_images=3,
    it_every=5,
    rounds_per_s=3.2,
    rounds_per_probe=1,
    capped_cap=12.0,
)

CHURN = Shape(
    tsa_tweets=18,
    it_images=3,
    it_every=3,
    rounds_per_s=20.0,
    rounds_per_probe=2,
    capped_cap=1.0,
    explain_share=0.15,
    poll_share=0.25,
    cancel_share=0.08,
    infeasible_share=0.06,
    replay_share=0.06,
)


@dataclass
class Op:
    """One client's work in one round."""

    tenant: str
    body: bytes
    #: Ground truth per question id.
    truth: dict[str, str]
    domain: tuple[str, ...]
    explain: bool = False
    poll: bool = False
    cancel: bool = False
    infeasible: bool = False
    #: Idempotency key sent with the submit; a replay resends it after
    #: the query finished and must get the first id back.
    key: str | None = None
    replay: bool = False


def _query(subject: str, domain: tuple[str, ...]) -> dict[str, Any]:
    return {
        "keywords": [subject],
        "required_accuracy": 0.9,
        "domain": list(domain),
        "timestamp": 0.0,
        "window": 24,
        "subject": subject,
    }


def build_schedule(shape: Shape, seed: int, rounds: int) -> list[list[Op]]:
    """``rounds`` rounds of two ops each (one per tenant), from ``seed``."""
    from repro.durability import codec
    from repro.it.images import SUBJECTS, generate_images
    from repro.tsa.lexicon import SENTIMENTS
    from repro.tsa.tweets import generate_tweets

    rng = random.Random(seed)
    gold = generate_tweets(["gold-movie"], per_movie=GOLD_TWEETS, seed=seed + 1)
    gold_images = generate_images(per_subject=1, seed=seed + 2)
    encoded_gold = codec.encode(gold)
    encoded_gold_images = codec.encode(gold_images)
    # A small pool of corpora, reused in a seeded order: generating one
    # per query would dominate set-up without changing what is served.
    corpora = 32
    tsa_corpora = []
    for index in range(corpora):
        movie = f"movie-{index}"
        tweets = generate_tweets(
            [movie], per_movie=shape.tsa_tweets, seed=seed * 1009 + index
        )
        tsa_corpora.append((movie, tweets, codec.encode(tweets)))
    it_corpora = []
    for index in range(corpora):
        images = generate_images(per_subject=1, seed=seed * 2003 + index)
        picks = rng.sample(range(len(images)), shape.it_images)
        chosen = [images[i] for i in sorted(picks)]
        it_corpora.append((chosen, codec.encode(chosen)))

    total = rounds * len(TENANTS)
    # Every extra is carried by a fixed number of queries; the seed picks
    # which.  Infeasible bodies are never cancelled, replayed or explained.
    chosen = list(range(total))
    rng.shuffle(chosen)
    cut = iter(chosen)

    def pick(share: float) -> set[int]:
        return {next(cut) for _ in range(round(share * total))}

    infeasible = pick(shape.infeasible_share)
    cancels = pick(shape.cancel_share)
    replays = pick(shape.replay_share)
    explains = set(rng.sample(sorted(set(range(total)) - infeasible), round(shape.explain_share * total)))
    polls = set(rng.sample(sorted(set(range(total)) - infeasible), round(shape.poll_share * total)))

    schedule: list[list[Op]] = []
    for round_index in range(rounds):
        ops = []
        for slot, tenant in enumerate(TENANTS):
            serial = round_index * len(TENANTS) + slot
            if (serial + 1) % shape.it_every == 0:
                images, encoded = it_corpora[rng.randrange(corpora)]
                domain = ("yes", "no")
                subject = f"images-{rng.choice(SUBJECTS)}"
                body: dict[str, Any] = {
                    "job": "image-tagging",
                    "query": _query(subject, domain),
                    "inputs": {
                        "images": encoded,
                        "gold_images": encoded_gold_images,
                        "worker_count": WORKERS_PER_ITEM,
                    },
                }
                truth = {
                    f"{image.image_id}#{tag}": (
                        "yes" if image.tag_applies(tag) else "no"
                    )
                    for image in images
                    for tag in image.candidate_tags
                }
            else:
                movie, tweets, encoded = tsa_corpora[rng.randrange(corpora)]
                domain = tuple(SENTIMENTS)
                body = {
                    "job": "twitter-sentiment",
                    "query": _query(movie, domain),
                    "inputs": {
                        "tweets": encoded,
                        "gold_tweets": encoded_gold,
                        "worker_count": WORKERS_PER_ITEM,
                        "batch_size": TSA_BATCH,
                    },
                }
                truth = {t.tweet_id: t.sentiment for t in tweets}
            if serial in infeasible:
                # A per-query budget no plan can meet: must be refused
                # with a 402 and a counter-offer, spending nothing.
                body["budget"] = 0.01
            ops.append(Op(
                tenant=tenant,
                body=json.dumps(body, separators=(",", ":")).encode(),
                truth=truth,
                domain=domain,
                explain=serial in explains,
                poll=serial in polls,
                cancel=serial in cancels,
                infeasible=serial in infeasible,
                replay=serial in replays,
                key=f"key-{seed}-{serial}" if serial in replays else None,
            ))
        schedule.append(ops)
    return schedule


def capped_op(schedule: list[list[Op]]) -> Op:
    """The capped tenant's query: the schedule's first plain TSA query."""
    op = next(
        op for ops in schedule for op in ops
        if not op.infeasible and json.loads(op.body)["job"] == "twitter-sentiment"
    )
    return dataclasses.replace(
        op, tenant=CAPPED_TENANT, explain=False, poll=False, cancel=False,
        replay=False, key=None,
    )
