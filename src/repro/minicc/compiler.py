"""Compilation driver: mini-C source text to a :class:`BinaryImage`."""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.isa.binary import BinaryImage
from repro.minicc.codegen import CodeGenerator
from repro.minicc.lexer import LexerError
from repro.minicc.parser import ParseError, parse
from repro.minicc.semantic import SemanticChecker, SemanticError


class CompilationError(Exception):
    """Raised when a mini-C source file cannot be compiled."""

    def __init__(self, name: str, cause: Exception) -> None:
        super().__init__(f"{name}: {cause}")
        self.name = name
        self.cause = cause


def compile_source(
    source: str,
    name: str = "a.out",
    source_file: Optional[str] = None,
    entry: str = "main",
) -> BinaryImage:
    """Compile mini-C *source* into a binary image named *name*.

    ``source_file`` is the name recorded in the debug line table (defaults to
    ``<name>.c``); ``entry`` is the exported symbol the VM starts from.
    Compilation is deterministic, so the image's
    :meth:`~repro.isa.binary.BinaryImage.content_digest` is a digest of
    these four inputs, recorded here instead of hashing the laid-out image.
    """
    try:
        program = parse(source)
        symbols = SemanticChecker(program).check()
        generator = CodeGenerator(
            program, symbols, name=name, source_file=source_file, entry=entry
        )
        image = generator.generate()
    except (LexerError, ParseError, SemanticError) as error:
        raise CompilationError(name, error) from error
    inputs = repr((source, name, source_file, entry)).encode("utf-8")
    image.digest = "source:" + hashlib.sha256(inputs).hexdigest()
    return image


__all__ = ["CompilationError", "compile_source"]
