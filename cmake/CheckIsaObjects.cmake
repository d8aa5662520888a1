# CheckIsaObjects.cmake — fails when an object compiled with per-file ISA
# flags defines a weak (COMDAT) symbol.
#
#   cmake -DNM=<nm> -DOBJECTS=<a.o|b.o|...> -DSOURCES=<x.cpp|y.cpp|...>
#         -P CheckIsaObjects.cmake
#
# OBJECTS are the objects of every target that trigen_add_isa_source added
# to; only those compiled from one of SOURCES are checked.  The linker
# keeps one copy of each weak symbol and nothing makes it the portable
# one, so an inline function instantiated in an -mavx2 object (e.g.
# std::popcount, Stopwatch::seconds) can end up running on a host without
# AVX2.  ISA objects must give everything they define internal linkage.

string(REPLACE "|" ";" objects "${OBJECTS}")
string(REPLACE "|" ";" sources "${SOURCES}")

set(checked 0)
set(failures "")
foreach(obj IN LISTS objects)
  get_filename_component(obj_name "${obj}" NAME)
  set(is_isa FALSE)
  foreach(src IN LISTS sources)
    string(FIND "${obj_name}" "${src}." pos)
    if(pos EQUAL 0)
      set(is_isa TRUE)
    endif()
  endforeach()
  if(NOT is_isa)
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  execute_process(COMMAND "${NM}" --defined-only -C "${obj}"
                  OUTPUT_VARIABLE syms RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${syms}")
  foreach(line IN LISTS lines)
    # W/V: weak function/object; u: GNU unique (COMDAT statics).
    if(line MATCHES "^[0-9a-fA-F]* *[WVu] (.*)$")
      string(APPEND failures "  ${obj_name}: ${CMAKE_MATCH_1}\n")
    endif()
  endforeach()
endforeach()

list(LENGTH sources expected)
if(NOT checked EQUAL expected)
  message(FATAL_ERROR
    "found ${checked} of ${expected} ISA objects (${SOURCES}) in ${OBJECTS}")
endif()
if(failures)
  message(FATAL_ERROR "weak symbols in ISA objects:\n${failures}")
endif()
message(STATUS "${checked} ISA objects, no weak symbols")
