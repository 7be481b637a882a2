# Option-field lint: every field of the public option structs must be set
# (`.name =`, designated initializers included) by some file other than the
# header that declares it, under src/, tests/, bench/, perfbench/ or
# examples/. A field nobody sets is a knob without a caller: each one
# doubles the configurations tests must cover, so it should be a constant
# at its use instead. Deployment settings with no in-tree caller are on the
# allowlist below, each with its reason.
#
#   cmake -DROOT_DIR=<repo> -P tests/lint/option_fields.cmake
#
# Exits nonzero and names each field nobody sets.

if(NOT ROOT_DIR)
  message(FATAL_ERROR "usage: cmake -DROOT_DIR=<dir> -P option_fields.cmake")
endif()

# <name>|<header under src/>|<regex for the line opening the struct>
set(structs
  "Database::Options|core/database.h|class Database [^{]*{[^}]*struct Options {"
  "ServerOptions|net/server.h|struct ServerOptions {"
  "ReplicatorOptions|repl/replicator.h|struct ReplicatorOptions {"
  "FollowerOptions|repl/follower.h|struct FollowerOptions {"
  "LocalPublisher::Options|net/client.h|class LocalPublisher [^{]*{[^}]*struct Options {"
  "RetryPolicy|net/client.h|struct RetryPolicy {"
  "ClientOptions|net/client.h|struct ClientOptions {")

set(allowlist
  # Sized to the host's memory; the default suits every in-tree caller.
  "Database::Options::buffer_pages"
  # Listen and dial addresses: in-tree callers all use loopback.
  "ServerOptions::host"
  "FollowerOptions::host"
  "LocalPublisher::Options::host"
  # The epoch a promoted node must start serving at; set by the operator.
  "ReplicatorOptions::initial_epoch")

# Collects (struct::field, header) pairs. `;` is swapped for a marker so
# C++ text survives CMake's list splitting.
set(fields "")
foreach(spec IN LISTS structs)
  string(REPLACE "|" ";" parts "${spec}")
  list(GET parts 0 struct)
  list(GET parts 1 header)
  list(GET parts 2 opener)
  file(READ "${ROOT_DIR}/src/${header}" text)
  string(REPLACE ";" "<semi>" text "${text}")
  string(REGEX MATCH "${opener}.*" tail "${text}")
  if(tail STREQUAL "")
    message(FATAL_ERROR "${struct}: not found in src/${header}")
  endif()
  string(REGEX REPLACE "^${opener}" "" tail "${tail}")
  string(FIND "${tail}" "}<semi>" end)
  string(SUBSTRING "${tail}" 0 ${end} body)
  string(REPLACE "\n" ";" lines "${body}")
  set(count 0)
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "//.*$" "" line "${line}")
    if(line MATCHES "^[ \t]*[A-Za-z_][A-Za-z0-9_:]*[ \t]+([A-Za-z_][A-Za-z0-9_]*)[ \t]*(=.*)?<semi>")
      list(APPEND fields "${struct}::${CMAKE_MATCH_1}|src/${header}")
      math(EXPR count "${count} + 1")
    endif()
  endforeach()
  if(count EQUAL 0)
    message(FATAL_ERROR "${struct}: no fields parsed from src/${header}")
  endif()
endforeach()

set(sources "")
foreach(dir src tests bench perfbench examples)
  file(GLOB_RECURSE found "${ROOT_DIR}/${dir}/*.cc" "${ROOT_DIR}/${dir}/*.h"
       "${ROOT_DIR}/${dir}/*.cpp")
  list(APPEND sources ${found})
endforeach()

# Per source file, strike every field it assigns (outside its own header).
set(unset ${fields})
foreach(path IN LISTS sources)
  file(RELATIVE_PATH rel "${ROOT_DIR}" "${path}")
  file(READ "${path}" text)
  set(still "")
  foreach(entry IN LISTS unset)
    string(REPLACE "|" ";" parts "${entry}")
    list(GET parts 0 qualified)
    list(GET parts 1 header)
    string(REGEX REPLACE ".*::" "" name "${qualified}")
    if(rel STREQUAL header OR NOT text MATCHES "\\.${name}[ \t]*=([^=]|$)")
      list(APPEND still "${entry}")
    endif()
  endforeach()
  set(unset ${still})
endforeach()

list(LENGTH fields total)
set(offenders 0)
foreach(entry IN LISTS unset)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 qualified)
  list(GET parts 1 header)
  list(FIND allowlist "${qualified}" allowed)
  if(allowed EQUAL -1)
    math(EXPR offenders "${offenders} + 1")
    message("${header}: ${qualified} is set by no caller; make it a "
            "constant at its use")
  endif()
endforeach()
if(offenders GREATER 0)
  message(FATAL_ERROR "${offenders} of ${total} option fields have no caller")
endif()
message(STATUS "${total} option fields, each set by a caller or allowlisted")
