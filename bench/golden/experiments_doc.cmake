# Check that EXPERIMENTS.md's hand-copied tables agree with the pinned
# bench output: every numeric cell of each listed table must equal, in
# order, the numbers on the golden row with the same label. Numbers
# compare by value as printed ("155" matches "155.0", "2.50 ns"
# matches "2.50").
#
#   cmake -DDOC=<EXPERIMENTS.md> -DGOLDEN_DIR=<bench/golden> \
#         -P experiments_doc.cmake
cmake_minimum_required(VERSION 3.16)

# "<heading prefix>=<golden file>" for each table checked.
set(tables
    "## Section 4.3 — throughput and wake-up latency=throughput_wakeup.txt"
    "## Figure 4 — energy per instruction type=fig4_energy.txt")

# Drop trailing fractional zeros: 155.0 -> 155, 2.50 -> 2.5.
function(normalize_number in out)
    string(REGEX REPLACE "(\\.[0-9]*[1-9])0+$" "\\1" n "${in}")
    string(REGEX REPLACE "\\.0+$" "" n "${n}")
    set(${out} "${n}" PARENT_SCOPE)
endfunction()

# Every number in @p text, normalized, as a list.
function(numbers_in text out)
    string(REGEX MATCHALL "[0-9]+(\\.[0-9]+)?" raw "${text}")
    set(nums "")
    foreach(r IN LISTS raw)
        normalize_number("${r}" n)
        list(APPEND nums "${n}")
    endforeach()
    set(${out} "${nums}" PARENT_SCOPE)
endfunction()

file(STRINGS "${DOC}" doc_lines ENCODING UTF-8)
set(failures "")
foreach(entry IN LISTS tables)
    string(REGEX MATCH "^(.*)=([^=]*)$" _ "${entry}")
    set(heading "${CMAKE_MATCH_1}")
    set(golden_file "${GOLDEN_DIR}/${CMAKE_MATCH_2}")

    # golden label (spaces removed) -> its numbers, as label_<key>.
    file(STRINGS "${golden_file}" golden_lines)
    set(golden_keys "")
    foreach(line IN LISTS golden_lines)
        if(line MATCHES "^ *([^ |]+( [^ |]+)*)(  +| *\\|)(.*)$")
            string(REPLACE " " "" key "${CMAKE_MATCH_1}")
            numbers_in("${CMAKE_MATCH_4}" nums)
            set("label_${key}" "${nums}")
            list(APPEND golden_keys "${key}")
        endif()
    endforeach()

    # The table rows under the heading, header and rule skipped.
    set(in_section OFF)
    set(seen_header OFF)
    set(rows 0)
    foreach(line IN LISTS doc_lines)
        if(line MATCHES "^## ")
            string(FIND "${line}" "${heading}" at)
            if(at EQUAL 0)
                set(in_section ON)
            else()
                set(in_section OFF)
            endif()
            continue()
        endif()
        if(NOT in_section OR NOT line MATCHES "^\\|")
            continue()
        endif()
        if(NOT seen_header)
            set(seen_header ON)
            continue()
        endif()
        if(line MATCHES "^[-|: ]+$")
            continue()
        endif()
        math(EXPR rows "${rows} + 1")

        string(REPLACE "|" ";" cells "${line}")
        list(FILTER cells EXCLUDE REGEX "^ *$")
        list(POP_FRONT cells label)
        string(STRIP "${label}" label)
        string(REPLACE " " "" key "${label}")
        set(doc_nums "")
        foreach(cell IN LISTS cells)
            string(REGEX MATCH "[0-9]+(\\.[0-9]+)?" raw "${cell}")
            normalize_number("${raw}" n)
            list(APPEND doc_nums "${n}")
        endforeach()

        if(NOT key IN_LIST golden_keys)
            list(APPEND failures
                 "${heading}: row '${label}' has no row in ${golden_file}")
            continue()
        endif()
        set(golden_nums "${label_${key}}")
        set(i 0)
        foreach(n IN LISTS doc_nums)
            list(LENGTH golden_nums count)
            if(i LESS count)
                list(GET golden_nums ${i} g)
            else()
                set(g "<none>")
            endif()
            if(NOT n STREQUAL g)
                list(APPEND failures
                     "${heading}: row '${label}' cell ${i} is ${n}, golden ${g}")
            endif()
            math(EXPR i "${i} + 1")
        endforeach()
    endforeach()
    if(rows EQUAL 0)
        list(APPEND failures "${heading}: no table rows found in ${DOC}")
    endif()
endforeach()

if(failures)
    list(JOIN failures "\n" msg)
    message(FATAL_ERROR "EXPERIMENTS.md disagrees with bench/golden:\n${msg}")
endif()
