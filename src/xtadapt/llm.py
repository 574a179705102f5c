"""Two-prompt grammar adaptation protocol over a pluggable text backend.

A session first shows the model the prior grammar pair so it can identify the
adaptations, then sends the newly generated grammar and asks for the adapted
version.  Replies are parsed and validated; concrete findings are fed back in
up to three targeted follow-up prompts.  Each DSL runs in its own isolated
session, and the mock backend replays a scripted reply list so whole runs are
bit-reproducible offline.
"""

from __future__ import annotations

import json
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from enum import Enum

from .conformance import check_conformance
from .model import Grammar
from .parsing import ParseDiagnostic, parse_grammar, print_grammar

PROMPT_1_TEXT = (
    "The attachment contains two Xtext grammars for the same language: the "
    "grammar generated from the metamodel and the target grammar. Please "
    "identify the adaptations required to transform the generated grammar "
    "into the target grammar."
)

PROMPT_2_TEXT = (
    "Now, I'm sending you the grammar generated from the evolved metamodel. "
    "Please adapt it using the adaptations you learned previously and output "
    "the adapted grammar to me."
)

FOLLOW_UP_TEXT = (
    "The adapted grammar has the following issues: {ISSUES}. "
    "Please fix only these issues and output the full corrected grammar."
)

PROMPT_2_TEMPLATE = PROMPT_2_TEXT + "\n\n{G2}"

MAX_FOLLOW_UPS = 3

#: Rough token estimate (4 chars per token) above which a session is flagged;
#: web frontends have been observed truncating large grammar uploads.
DEFAULT_TOKEN_BUDGET = 100_000


class Outcome(Enum):
    PENDING = "PENDING"
    ACCEPTED = "ACCEPTED"
    EXHAUSTED = "EXHAUSTED"
    ERROR = "ERROR"


@dataclass
class Turn:
    role: str  # "user" | "model"
    text: str


@dataclass
class AdaptationSession:
    dsl_name: str
    turns: list[Turn] = field(default_factory=list)
    follow_ups_used: int = 0
    outcome: Outcome = Outcome.PENDING
    extracted_grammar: Grammar | None = None
    truncation_risk: bool = False
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "dsl": self.dsl_name,
            "turns": [{"role": t.role, "text": t.text} for t in self.turns],
            "followUpsUsed": self.follow_ups_used,
            "outcome": self.outcome.value,
            "truncationRisk": self.truncation_risk,
        }


class BackendError(Exception):
    """Transport-level failure talking to the generation backend."""


class MockBackend:
    """Replays a scripted list of replies in order; pure and reproducible."""

    def __init__(self, replies: list[str]):
        self._replies = list(replies)
        self._cursor = 0

    @classmethod
    def from_replay_file(cls, path: str) -> "MockBackend":
        with open(path, encoding="utf-8") as handle:
            replies = json.load(handle)
        if not isinstance(replies, list) or not all(isinstance(r, str) for r in replies):
            raise BackendError(f"replay file {path} must be a JSON array of strings")
        return cls(replies)

    def complete(self, messages: list[dict[str, str]]) -> str:
        if self._cursor >= len(self._replies):
            raise BackendError("mock backend ran out of scripted replies")
        reply = self._replies[self._cursor]
        self._cursor += 1
        return reply


class HttpBackend:
    """Minimal chat-completion client: model, message list, temperature.

    The credential is read from an environment variable at call time and is
    never echoed into transcripts.
    """

    def __init__(
        self,
        endpoint: str,
        model: str = "default",
        credential_env: str = "XTADAPT_API_KEY",
        temperature: float = 0.0,
        timeout: float = 120.0,
    ):
        self.endpoint = endpoint
        self.model = model
        self.credential_env = credential_env
        self.temperature = temperature
        self.timeout = timeout

    def complete(self, messages: list[dict[str, str]]) -> str:
        credential = os.environ.get(self.credential_env)
        if not credential:
            raise BackendError(
                f"credential environment variable {self.credential_env} is not set"
            )
        payload = json.dumps(
            {
                "model": self.model,
                "messages": messages,
                "temperature": self.temperature,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint,
            data=payload,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {credential}",
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as err:
            raise BackendError(f"backend request failed: {err}") from err
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise BackendError(f"unexpected backend response shape: {err}") from err


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class ExtractionFailure:
    reason: str
    diagnostics: tuple[ParseDiagnostic, ...] = ()

    def issues(self) -> list[str]:
        if self.diagnostics:
            return [f"parse error at {d.span}: {d.message}" for d in self.diagnostics]
        return [self.reason]


NO_GRAMMAR_FOUND = "NO_GRAMMAR_FOUND"


def extract_grammar_from_reply(reply_text: str) -> Grammar | ExtractionFailure:
    """Pull the grammar out of a model reply.

    Tries the largest fenced code block first, then the region from the first
    ``grammar`` line to the end, then the whole reply when it looks like bare
    grammar text (contains both ':' and ';').  When none parses, the failure
    carries the diagnostics of the first candidate that failed: the later
    regions can run over a fence's closing backticks.
    """
    candidates: list[str] = []
    fences = sorted(_FENCE_RE.findall(reply_text), key=len, reverse=True)
    candidates.extend(f.strip() for f in fences if f.strip())
    match = re.search(r"^grammar\s.*$", reply_text, re.MULTILINE)
    if match:
        candidates.append(reply_text[match.start() :].strip())
    if not candidates and ":" in reply_text and ";" in reply_text:
        candidates.append(reply_text.strip())
    if not candidates:
        return ExtractionFailure(NO_GRAMMAR_FOUND)
    diagnostics: tuple[ParseDiagnostic, ...] = ()
    for candidate in candidates:
        parsed = parse_grammar(candidate)
        if isinstance(parsed, Grammar) and parsed.rules:
            return parsed
        if not isinstance(parsed, Grammar) and not diagnostics:
            diagnostics = tuple(parsed)
    return ExtractionFailure("no candidate region parsed as a grammar", diagnostics)


def _estimate_tokens(text: str) -> int:
    return (len(text) + 3) // 4


def render_prompt_1(g1_text: str, g1prime_text: str) -> str:
    return f"{PROMPT_1_TEXT}\n\nGenerated grammar:\n{g1_text}\n\nTarget grammar:\n{g1prime_text}"


def render_prompt_2(g2_text: str) -> str:
    return PROMPT_2_TEMPLATE.replace("{G2}", g2_text)


def render_follow_up(issues: list[str]) -> str:
    return FOLLOW_UP_TEXT.replace("{ISSUES}", "; ".join(issues))


def run_adaptation(
    g1: Grammar,
    g1prime: Grammar,
    g2: Grammar,
    backend,
    known_terminals: frozenset[str] | set[str] | None = None,
    dsl_name: str = "",
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> AdaptationSession:
    """Run one isolated adaptation session and return its full transcript.

    The session is ACCEPTED as soon as a reply parses and passes conformance
    checking, EXHAUSTED when three validation-driven follow-ups did not fix
    it, and ERROR on backend transport failure (transcript preserved).
    """
    session = AdaptationSession(dsl_name=dsl_name or (g2.name or g1.name or "dsl"))
    messages: list[dict[str, str]] = []

    def send(text: str) -> str:
        session.turns.append(Turn("user", text))
        messages.append({"role": "user", "content": text})
        reply = backend.complete(list(messages))
        session.turns.append(Turn("model", reply))
        messages.append({"role": "assistant", "content": reply})
        return reply

    prompt_1 = render_prompt_1(print_grammar(g1), print_grammar(g1prime))
    prompt_2 = render_prompt_2(print_grammar(g2))
    if _estimate_tokens(prompt_1) > token_budget or _estimate_tokens(prompt_2) > token_budget:
        session.truncation_risk = True

    try:
        send(prompt_1)
        reply = send(prompt_2)
        while True:
            issues = _validate_reply(reply, known_terminals, session)
            if not issues:
                session.outcome = Outcome.ACCEPTED
                return session
            if session.follow_ups_used >= MAX_FOLLOW_UPS:
                session.outcome = Outcome.EXHAUSTED
                return session
            session.follow_ups_used += 1
            reply = send(render_follow_up(issues))
    except BackendError as err:
        session.outcome = Outcome.ERROR
        session.error = str(err)
        return session


def _validate_reply(
    reply: str,
    known_terminals: frozenset[str] | set[str] | None,
    session: AdaptationSession,
) -> list[str]:
    extracted = extract_grammar_from_reply(reply)
    if isinstance(extracted, ExtractionFailure):
        return extracted.issues()
    findings = check_conformance(extracted, known_terminals)
    if findings:
        return [str(f) for f in findings]
    session.extracted_grammar = extracted
    return []


def save_transcript(session: AdaptationSession, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(session.to_json_dict(), handle, indent=2)
        handle.write("\n")
