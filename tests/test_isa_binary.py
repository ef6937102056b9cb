"""Unit tests for the BinaryImage model."""

import pytest

from repro.isa.assembler import assemble_text
from repro.minicc import compile_source

SOURCE = """
int total = 0;

int helper(int fd) {
    int n;
    int buffer[8];
    n = read(fd, buffer, 4);
    if (n < 0) {
        return -1;
    }
    return n;
}

int main() {
    int fd;
    fd = open("/tmp/x", 0);
    if (fd < 0) {
        return 1;
    }
    helper(fd);
    close(fd);
    return 0;
}
"""


@pytest.fixture(scope="module")
def binary():
    return compile_source(SOURCE, name="binmodel")


class TestBinaryImage:
    def test_symbols_and_functions(self, binary):
        assert set(binary.symbols) == {"helper", "main"}
        helper = binary.functions["helper"]
        main = binary.functions["main"]
        assert helper.size > 0 and main.size > 0
        assert helper.end <= main.start or main.end <= helper.start

    def test_function_containing(self, binary):
        start = binary.symbols["helper"]
        info = binary.function_containing(start)
        assert info is not None and info.name == "helper"
        assert binary.function_containing(10**6) is None

    def test_instruction_at_bounds(self, binary):
        assert binary.instruction_at(0) is binary.instructions[0]
        with pytest.raises(IndexError):
            binary.instruction_at(len(binary) + 5)
        assert binary.has_address(0)
        assert not binary.has_address(-1)

    def test_imports_and_call_sites(self, binary):
        assert {"read", "open", "close"} <= set(binary.imports)
        read_sites = binary.call_sites("read")
        assert len(read_sites) == 1
        assert read_sites[0].caller == "helper"
        all_sites = binary.call_sites()
        assert len(all_sites) >= 3
        histogram = binary.called_imports()
        assert histogram["read"] == 1

    def test_line_table_and_sources(self, binary):
        site = binary.call_sites("read")[0]
        assert site.source is not None
        assert site.source.file == "binmodel.c"
        assert binary.source_of(site.address) == site.source
        lines = binary.lines()
        assert (site.source.file, site.source.line) in lines

    def test_addresses_for_line(self, binary):
        site = binary.call_sites("open")[0]
        addresses = binary.addresses_for_line(site.source.file, site.source.line)
        assert site.address in addresses

    def test_entry_address(self, binary):
        assert binary.entry_address() == binary.symbols["main"]
        with pytest.raises(KeyError):
            binary.entry_address("nonexistent")

    def test_iter_function_instructions(self, binary):
        addresses = [address for address, _ in binary.iter_function_instructions("helper")]
        info = binary.functions["helper"]
        assert addresses == list(range(info.start, info.end))
        with pytest.raises(KeyError):
            list(binary.iter_function_instructions("ghost"))

    def test_summary_mentions_name(self, binary):
        assert "binmodel" in binary.summary()


class TestInferredFunctions:
    def test_extents_inferred_from_symbols(self):
        binary = assemble_text(
            ".func a\n    nop\n    ret\n.endfunc\n.func b\n    nop\n    nop\n    ret\n.endfunc",
            name="two",
        )
        assert binary.functions["a"].size == 2
        assert binary.functions["b"].size == 3


class TestContentDigest:
    def test_compiled_images_digest_their_inputs(self, binary):
        assert binary.content_digest() == compile_source(SOURCE, name="binmodel").digest
        assert compile_source(SOURCE + "\n", name="binmodel").digest != binary.digest
        assert compile_source(SOURCE, name="other").digest != binary.digest

    def test_other_images_hash_their_contents_once(self):
        text = ".func a\n    nop\n    ret\n.endfunc"
        first = assemble_text(text, name="two")
        assert first.digest is None
        digest = first.content_digest()
        assert first.digest == digest
        assert assemble_text(text, name="two").content_digest() == digest
        assert assemble_text(text.replace("nop", "ret"), name="two").content_digest() != digest
        assert assemble_text(text, name="three").content_digest() != digest
