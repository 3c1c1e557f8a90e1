// Fixture: lenient-number-parse, checked under bench/ (the check also covers
// src/, examples/ and tools/).
#include <cstdlib>
#include <string>

std::size_t count(const char* text) { return std::strtoul(text, nullptr, 10); }

unsigned long long bytes(const std::string& text) { return std::stoull(text); }

int year(const char* text) { return atoi(text); }
