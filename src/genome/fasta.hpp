#ifndef SF_GENOME_FASTA_HPP
#define SF_GENOME_FASTA_HPP

/**
 * @file
 * Minimal FASTA reader/writer so genomes and assemblies can be
 * exchanged with standard bioinformatics tooling.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "genome/genome.hpp"

namespace sf::genome {

/** Write genomes to a FASTA stream, wrapping lines at @p width. */
void writeFasta(std::ostream &os, const std::vector<Genome> &genomes,
                std::size_t width = 70);

/** Write a single genome to a FASTA file; raises FatalError on I/O. */
void writeFastaFile(const std::string &path, const Genome &genome);

/**
 * Parse all records from a FASTA stream.
 * Unknown characters (N, ambiguity codes) are skipped with a warning
 * since the 2-bit representation cannot hold them.  Sequence before
 * the first header, or a header with no name, raises FatalError
 * naming the line.
 */
std::vector<Genome> readFasta(std::istream &is);

/** Parse all records from a FASTA file; raises FatalError on I/O. */
std::vector<Genome> readFastaFile(const std::string &path);

} // namespace sf::genome

#endif // SF_GENOME_FASTA_HPP
