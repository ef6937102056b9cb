"""Tokenizer for mini-C."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

KEYWORDS = frozenset(
    {"int", "if", "else", "while", "for", "return", "break", "continue"}
)

# Multi-character operators must be listed before their prefixes.
OPERATORS = (
    "==", "!=", "<=", ">=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&",
    "(", ")", "{", "}", "[", "]", ";", ",",
)


class LexerError(Exception):
    """Raised for characters or literals the tokenizer cannot handle."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "ident", "keyword", "string", "op", "eof"
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    """Convert mini-C source text into a token list (ending with ``eof``)."""
    tokens: List[Token] = []
    line = 1
    index = 0
    length = len(source)

    while index < length:
        char = source[index]

        if char == "\n":
            line += 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            continue

        # comments: //... and /* ... */
        if source.startswith("//", index):
            end = source.find("\n", index)
            index = length if end == -1 else end
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise LexerError("unterminated block comment", line)
            line += source.count("\n", index, end)
            index = end + 2
            continue

        if char.isdigit():
            start = index
            while index < length and (source[index].isdigit() or source[index] in "xXabcdefABCDEF"):
                index += 1
            text = source[start:index]
            try:
                int(text, 0)
            except ValueError as exc:
                raise LexerError(f"bad integer literal {text!r}", line) from exc
            tokens.append(Token("int", text, line))
            continue

        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            continue

        if char == '"':
            start = index + 1
            index = start
            value = []
            while index < length and source[index] != '"':
                if source[index] == "\\" and index + 1 < length:
                    escape = source[index + 1]
                    value.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\", "0": "\0"}.get(escape, escape))
                    index += 2
                    continue
                if source[index] == "\n":
                    raise LexerError("newline inside string literal", line)
                value.append(source[index])
                index += 1
            if index >= length:
                raise LexerError("unterminated string literal", line)
            index += 1
            tokens.append(Token("string", "".join(value), line))
            continue

        if char == "'":
            if index + 2 < length and source[index + 2] == "'":
                tokens.append(Token("int", str(ord(source[index + 1])), line))
                index += 3
                continue
            raise LexerError("bad character literal", line)

        matched = False
        for operator in OPERATORS:
            if source.startswith(operator, index):
                tokens.append(Token("op", operator, line))
                index += len(operator)
                matched = True
                break
        if matched:
            continue

        raise LexerError(f"unexpected character {char!r}", line)

    tokens.append(Token("eof", "", line))
    return tokens


__all__ = ["KEYWORDS", "LexerError", "Token", "tokenize"]
